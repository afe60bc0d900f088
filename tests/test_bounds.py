from __future__ import annotations

import numpy as np
import pytest

from girthforge.bases import CANONICAL_STS, all_ones_base, sts_base
from girthforge.bounds import (OverBudgetError, base_girth, d2_bruteforce,
                               distance_cap, lift_floor, tanner_tree_bound,
                               theorem2_lower_bound, theorem3_applies)
from girthforge.girth import GirthSystem
from girthforge.matrices import NO_EDGE, BaseMatrix
from girthforge.search import _restricted_edges
from girthforge import catalog


def test_base_girth_all_ones():
    assert base_girth(all_ones_base(3, 4)) == 4


def test_base_girth_sts9():
    assert base_girth(sts_base(CANONICAL_STS[9])) == 6


def test_base_girth_acyclic():
    b = BaseMatrix(np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8))
    assert base_girth(b) is None


def test_theorem3_all_ones():
    for j in (2, 3, 4):
        for k in (3, 4, 7):
            assert theorem3_applies(all_ones_base(j, k))
    assert theorem3_applies(all_ones_base(2, 3))


def test_theorem3_sts_bases_escape_cap():
    assert not theorem3_applies(sts_base(CANONICAL_STS[9]))
    assert not theorem3_applies(sts_base(CANONICAL_STS[13]))


def test_theorem2_values():
    b23 = all_ones_base(2, 3)
    assert theorem2_lower_bound(b23, d2=6) == 12
    assert theorem2_lower_bound(all_ones_base(3, 4)) == 12  # g_B=4 -> 2*(4+2)
    # g_B = 6 without d2: 2*(6+3) = 18 >= 3*g_B
    assert theorem2_lower_bound(sts_base(CANONICAL_STS[9])) == 18


def test_theorem2_at_least_three_gb():
    for base in (all_ones_base(3, 4), sts_base(CANONICAL_STS[9])):
        g_b = base_girth(base)
        assert theorem2_lower_bound(base) >= 3 * g_b


def test_d2_of_2x3_all_ones():
    assert d2_bruteforce(all_ones_base(2, 3), budget=8) == 6


def test_d2_single_cycle_has_no_subcode():
    b = BaseMatrix(np.array([[1, 1], [1, 1]], dtype=np.uint8))
    assert d2_bruteforce(b, budget=8) is None


def test_d2_over_budget():
    with pytest.raises(OverBudgetError):
        d2_bruteforce(all_ones_base(3, 6), budget=2)


def test_d2_feeds_theorem2_consistently():
    b = all_ones_base(3, 4)
    d2 = d2_bruteforce(b, budget=12)
    assert d2 is not None
    assert 2 * d2 >= 12
    assert theorem2_lower_bound(b, d2=d2) == 2 * max(6, d2)


def test_distance_cap_values():
    import math

    assert distance_cap(3, False, 4, 1) == 24
    assert distance_cap(3, True, 4, 1) == 24   # c-b = 3 -> 4!
    assert distance_cap(3, True, 12, 3) == math.factorial(10)
    assert distance_cap(2, False, 3, 1) == 6


def test_distance_cap_holds_on_catalog():
    for entry in catalog.CATALOG:
        w = entry.degree_matrix()
        if entry.d_min is not None:
            assert entry.d_min <= distance_cap(3, w.has_no_edge(), w.n_cols,
                                               w.n_cols - w.n_rows), entry.name


def test_tanner_tree_bound_values():
    assert [tanner_tree_bound(3, g) for g in range(6, 20, 2)] == [4, 6, 10, 14, 22, 30, 46]
    assert [tanner_tree_bound(4, g) for g in (6, 8, 10)] == [5, 8, 17]
    # with two ones a column a codeword is a union of cycles, g/2 columns at least
    assert [tanner_tree_bound(2, g) for g in range(4, 20, 2)] == list(range(2, 10))


@pytest.mark.parametrize("j,g", [(3, 7), (3, 2), (0, 8)])
def test_tanner_tree_bound_rejects_bad_input(j, g):
    with pytest.raises(ValueError):
        tanner_tree_bound(j, g)


def test_certified_girth_respects_theorem3_cap():
    for entry in catalog.CATALOG:
        if theorem3_applies(entry.degree_matrix().base()):
            assert entry.girth <= 12, entry.name


@pytest.mark.parametrize("base,floors", [
    (all_ones_base(3, 4), {4: 1, 6: 4, 8: 7, 10: 25, 12: 43}),
    (all_ones_base(3, 5), {8: 9, 10: 41, 12: 73}),
    (sts_base(CANONICAL_STS[9]), {14: 49, 16: 97, 18: 241}),
], ids=["3x4", "3x5", "sts9"])
def test_lift_floor_values(base, floors):
    assert {g: lift_floor(base, g) for g in floors} == floors


def test_lift_floor_of_an_edgeless_base_is_one():
    assert lift_floor(BaseMatrix(np.zeros((2, 3), dtype=np.uint8)), 8) == 1


def test_lift_floor_saturates_instead_of_overflowing():
    # sts13's walks of length 59 number about 10**29, past int64; the
    # counts saturate at 2**40 instead of wrapping
    assert lift_floor(sts_base(CANONICAL_STS[13]), 120) == 1 << 40


@pytest.mark.parametrize("g,m", [(6, 3), (8, 6)])
def test_no_restricted_34_assignment_passes_below_the_floor(g, m):
    # every (3,4) assignment with the six pinned edges at zero, the other
    # six over all of [0, M)^6: none reaches girth g one step below the floor
    base = all_ones_base(3, 4)
    assert lift_floor(base, g) == m + 1
    pinned, _ = _restricted_edges(base)
    free = np.setdiff1d(np.arange(12), pinned)
    block = np.zeros((m ** 6, 12), dtype=np.int64)
    block[:, free] = np.indices((m,) * 6).reshape(6, -1).T
    assert not GirthSystem(base, g).check_batch(block, m).any()


def test_corpus_codes_sit_on_or_above_the_floor():
    tight = set()
    for entry in catalog.CATALOG:
        pattern = BaseMatrix((entry.degree.entries != NO_EDGE).astype(np.uint8))
        floor = lift_floor(pattern, entry.girth)
        assert entry.m >= floor, entry.name
        if entry.m == floor:
            tight.add(entry.name)
    assert tight == {"g06_k5", "g06_k7", "g06_k9", "g06_k11"}
