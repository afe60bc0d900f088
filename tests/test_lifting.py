from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthforge.lifting import (TailbitingCode, lift_circulant, lift_tailbiting,
                                reorder_to_circulant)
from girthforge.matrices import NO_EDGE, DegreeMatrix, SparseParityCheck, gf2_rank
from girthforge import catalog, gf2

from conftest import TOY_TB, TOY_CIRC


def test_lift_tailbiting_matches_golden(toy_degrees):
    h = lift_tailbiting(toy_degrees, 2)
    assert np.array_equal(h.to_dense(), TOY_TB)
    assert h.layout == "tailbiting"


def test_lift_circulant_matches_golden(toy_degrees):
    h = lift_circulant(toy_degrees, 2)
    assert np.array_equal(h.to_dense(), TOY_CIRC)


def test_lift_m1_is_base():
    w = DegreeMatrix(np.zeros((3, 4), dtype=np.int64))
    h = lift_tailbiting(w, 1)
    assert np.array_equal(h.to_dense(), np.ones((3, 4), dtype=np.uint8))


def test_lift_rejects_small_m(toy_degrees):
    with pytest.raises(ValueError):
        lift_tailbiting(toy_degrees, 1)
    with pytest.raises(ValueError):
        lift_circulant(toy_degrees, 1)


def test_no_edge_gives_zero_block():
    w = DegreeMatrix(np.array([[0, NO_EDGE], [1, 0]]), modulus=3)
    h = lift_circulant(w, 3)
    dense = h.to_dense()
    assert not dense[0:3, 3:6].any()


def test_circulant_shift_convention():
    # a single degree-1 edge at M=3: row s carries its one at column (s-1) mod 3.
    # This orientation is forced by the tailbiting/circulant permutation
    # equivalence (test_reorder_equivalence_random pins the pairing).
    w = DegreeMatrix(np.array([[1, 0], [0, 0]]), modulus=3)
    block = lift_circulant(w, 3).to_dense()[0:3, 0:3]
    expected = np.zeros((3, 3), dtype=np.uint8)
    for s in range(3):
        expected[s, (s - 1) % 3] = 1
    assert np.array_equal(block, expected)


def test_quasi_cyclic_shift_property(toy_degrees):
    # shifting any codeword by c positions mod Mc stays a codeword
    from girthforge import gf2
    h = lift_tailbiting(toy_degrees, 2)
    basis = gf2.nullspace_basis(h.packed(), h.n_cols)
    hd = h.to_dense()
    for cw in basis:
        shifted = np.roll(cw, 4)
        assert not (hd @ shifted % 2).any()


def test_reorder_matches_printed_permutation(toy_degrees):
    h_tb = lift_tailbiting(toy_degrees, 2)
    h_c, col_perm, row_perm = reorder_to_circulant(h_tb, 4, 3, 2)
    assert h_c == lift_circulant(toy_degrees, 2)
    assert (col_perm + 1).tolist() == [1, 5, 2, 6, 3, 7, 4, 8]
    assert (row_perm + 1).tolist() == [1, 4, 2, 5, 3, 6]


def test_reorder_identity_at_m1():
    w = DegreeMatrix(np.zeros((3, 4), dtype=np.int64))
    h = lift_tailbiting(w, 1)
    _, col_perm, row_perm = reorder_to_circulant(h, 4, 3, 1)
    assert col_perm.tolist() == list(range(4))
    assert row_perm.tolist() == list(range(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 11))
def test_reorder_equivalence_random(seed, m):
    rng = np.random.default_rng(seed)
    w = DegreeMatrix(rng.integers(0, m, size=(3, 4)), modulus=m)
    reordered, _, _ = reorder_to_circulant(lift_tailbiting(w, m), 4, 3, m)
    assert reordered == lift_circulant(w, m)


def test_regular_weights_both_layouts():
    entry = catalog.BY_NAME["g08_k4"]
    for lift in (lift_tailbiting, lift_circulant):
        h = lift(entry.degree_matrix(), entry.m)
        assert {len(col) for col in h.column_lists()} == {3}
        assert set(h.row_weights()) == {4}


def dense_rank(h) -> int:
    return gf2.rank(h.packed(), h.n_cols)


@pytest.fixture
def dense_calls(monkeypatch):
    """Count the dense eliminations that gf2_rank runs."""
    calls = []
    rank = gf2.rank

    def counted(packed, n_cols):
        calls.append(n_cols)
        return rank(packed, n_cols)

    monkeypatch.setattr(gf2, "rank", counted)
    return calls


def test_rank_equal_across_layouts(toy_degrees, dense_calls):
    tb = lift_tailbiting(toy_degrees, 2)
    ci = lift_circulant(toy_degrees, 2)
    qc = gf2.qc_rank(toy_degrees.entries, 2)
    assert gf2_rank(tb) == gf2_rank(ci) == qc
    assert dense_calls == []
    assert dense_rank(tb) == dense_rank(ci) == qc == 4


@pytest.mark.parametrize("m", [1, 2, 3, 6, 7, 8, 12, 15, 16])
@pytest.mark.parametrize("seed", range(4))
def test_qc_rank_matches_dense_random(m, seed, dense_calls):
    # M = 1, 2, odd, even and powers of 2; NO_EDGE holes; every other case
    # has an all-NO_EDGE base row (a rank deficiency of a whole M)
    rng = np.random.default_rng(1000 * seed + m)
    cb, c = int(rng.integers(1, 5)), int(rng.integers(2, 7))
    entries = rng.integers(0, m, size=(cb, c))
    entries[rng.random((cb, c)) < 0.3] = NO_EDGE
    if seed % 2:
        entries[int(rng.integers(cb))] = NO_EDGE
    w = DegreeMatrix(entries, modulus=m)
    tb = lift_tailbiting(w, m)
    expected = dense_rank(tb)
    assert gf2.qc_rank(entries, m) == expected
    layouts = (tb, lift_circulant(w, m), reorder_to_circulant(tb, c, cb, m)[0])
    dense_calls.clear()
    for h in layouts:
        assert gf2_rank(h) == expected
    assert dense_calls == []
    # rows edited under kept block metadata: the QC engine must not be used
    for h in layouts:
        rows = list(h.rows)
        r = int(rng.integers(h.n_rows))
        rows[r] = tuple(sorted(set(rows[r]) ^ {int(rng.integers(h.n_cols))}))
        edited = SparseParityCheck(h.n_rows, h.n_cols, tuple(rows), h.layout, h.block)
        dense_calls.clear()
        assert gf2_rank(edited) == dense_rank(edited)
        if m > 1:  # at M = 1 every 0/1 matrix is a lift of its own pattern
            assert dense_calls[0] == h.n_cols


def test_tailbiting_code_dimensions():
    entry = catalog.BY_NAME["g06_k4"]
    code = TailbitingCode(entry.degree_matrix(), entry.m)
    assert code.n == 20
    assert code.k == 7
    with pytest.raises(ValueError):
        TailbitingCode(entry.degree_matrix(), 3)
