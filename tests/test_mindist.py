from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthforge.lifting import (TailbitingCode, degree_matrix_of_lift, lift_circulant,
                                lift_tailbiting)
from girthforge.matrices import DegreeMatrix, QCBlock, SparseParityCheck
from girthforge.mindist import (Distance, iterative_deepening_distance,
                                min_distance_bruteforce, min_distance_md)
from girthforge import catalog

from conftest import toggle_row


def code_for(name: str) -> TailbitingCode:
    entry = catalog.BY_NAME[name]
    return TailbitingCode(entry.degree_matrix(), entry.m)


@pytest.mark.parametrize("name,expected", [
    ("g06_k4", 6), ("g06_k5", 6), ("g08_k4", 6),
    ("g06_k6", 4), ("g06_k7", 4),
])
def test_md_matches_published_small(name, expected):
    assert min_distance_md(code_for(name), 26) == Distance(expected, True)


def test_md_and_bruteforce_agree_small():
    for name in ("g06_k4", "g06_k5", "g08_k4", "g06_k6"):
        code = code_for(name)
        md = min_distance_md(code, 26)
        assert md.exact
        assert md.value == min_distance_bruteforce(code.h_tb)


def test_branch_and_bound_restores_recursion_limit():
    # a cap above the recursion limit raises it for the search only
    limit = sys.getrecursionlimit()
    assert min_distance_md(code_for("g06_k4"), limit + 100) == Distance(6, True)
    assert sys.getrecursionlimit() == limit


def test_toy_code_both_engines(toy_degrees):
    code = TailbitingCode(toy_degrees, 2)
    md = min_distance_md(code, 10)
    assert md.exact
    assert md.value == min_distance_bruteforce(code.h_tb)


def test_duplicate_columns_give_distance_two():
    w = DegreeMatrix(np.array([[1, 1], [0, 0], [2, 2]]), modulus=3)
    assert min_distance_md(TailbitingCode(w, 3), 8) == Distance(2, True)


def test_md_accepts_circulant_layout():
    entry = catalog.BY_NAME["g06_k4"]
    for lift in (lift_circulant, lift_tailbiting):
        h = lift(entry.degree_matrix(), entry.m)
        assert min_distance_md(h, 26) == Distance(6, True)
        w, m = degree_matrix_of_lift(h)
        assert w == entry.degree_matrix() and m == entry.m


def test_md_rejects_non_circulant_blocks():
    entry = catalog.BY_NAME["g06_k4"]
    for lift in (lift_circulant, lift_tailbiting):
        h = lift(entry.degree_matrix(), entry.m)
        # corrupt one row: no longer a stack of single circulants
        bad = toggle_row(h, 1, {0, 1})
        with pytest.raises(ValueError):
            degree_matrix_of_lift(bad)
        with pytest.raises(ValueError):
            min_distance_md(bad, 26)
        # block metadata of the wrong shape
        wrong = SparseParityCheck(h.n_cols, h.indptr, h.indices, h.layout,
                                  QCBlock(entry.m + 1, 4, 3))
        with pytest.raises(ValueError):
            degree_matrix_of_lift(wrong)
    # a generic matrix carries no block structure at all
    plain = SparseParityCheck.from_dense(h.to_dense())
    with pytest.raises(ValueError):
        degree_matrix_of_lift(plain)


def test_md_rejects_tiny_cap():
    with pytest.raises(ValueError):
        min_distance_md(code_for("g06_k4"), 1)


def test_md_lower_bound_contract():
    assert min_distance_md(code_for("g06_k4"), 4) == Distance(4, False)


def test_distance_invariant_under_layout(toy_degrees):
    tb = lift_tailbiting(toy_degrees, 2)
    ci = lift_circulant(toy_degrees, 2)
    assert min_distance_bruteforce(tb) == min_distance_bruteforce(ci)


def test_weak_pruning_same_answer():
    for name in ("g06_k4", "g08_k4"):
        code = code_for(name)
        strong = min_distance_md(code, 26)
        weak = min_distance_md(code, 26, strengthened=False)
        assert strong == weak


def test_weak_pruning_irregular_columns():
    from girthforge.matrices import NO_EDGE

    w = DegreeMatrix(np.array([[0, 1, NO_EDGE, 2],
                               [1, NO_EDGE, 0, 3],
                               [2, 0, 1, 4]]), modulus=5)
    code = TailbitingCode(w, 5)
    strong = min_distance_md(code, 12)
    weak = min_distance_md(code, 12, strengthened=False)
    assert strong == weak
    assert strong.exact
    assert strong.value == min_distance_bruteforce(code.h_tb)


def test_iterative_deepening_escalates():
    res = iterative_deepening_distance(code_for("g08_k5"), 8, 26)
    assert res == Distance(10, True)


def test_iterative_deepening_certifies_bound():
    res = iterative_deepening_distance(code_for("g06_k4"), 3, 5)
    assert res == Distance(5, False)
    with pytest.raises(ValueError):
        iterative_deepening_distance(code_for("g06_k4"), 10, 5)


def test_monomial_distance_cap_holds():
    # (J+1)! = 24 bounds every monomial-only code; t0 = 26 always settles
    res = iterative_deepening_distance(code_for("g06_k4"), 26, 26)
    assert res.exact and res.value <= 24


def test_bruteforce_rejects_large_dimension():
    entry = catalog.BY_NAME["g10_k4"]  # k = 39
    h = lift_tailbiting(entry.degree_matrix(), entry.m)
    with pytest.raises(ValueError):
        min_distance_bruteforce(h)


def test_bruteforce_single_zero_column():
    h = SparseParityCheck(1, np.zeros(2, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert min_distance_bruteforce(h) == 1


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 7))
def test_md_agrees_with_bruteforce_random(seed, m):
    rng = np.random.default_rng(seed)
    w = DegreeMatrix(rng.integers(0, m, size=(3, 4)), modulus=m)
    code = TailbitingCode(w, m)
    md = min_distance_md(code, 26)
    bf = min_distance_bruteforce(code.h_tb)
    assert md.exact and md.value == bf
