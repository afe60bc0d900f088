from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthforge.bases import all_ones_base, shorten_sts_base, sts_base, CANONICAL_STS
from girthforge import girth as girth_module
from girthforge.bounds import _walk_counts
from girthforge.girth import (GirthSystem, InequalitySet, certified_girth, check_assignment_sorted,
                              collect_inequalities, complexity_counts, free_girth,
                              girth_bfs_oracle, grow_trees, node_pair_count,
                              qc_start_vertices, reduce_trees)
from girthforge.lifting import lift_circulant, lift_tailbiting
from girthforge.matrices import NO_EDGE, DegreeMatrix, SparseParityCheck
from girthforge.search import degree_matrix_to_assignment
from girthforge import catalog

from conftest import reference_girth


def test_tree_shape_g6():
    trees = grow_trees(all_ones_base(3, 4), 6)
    assert len(trees) == 4
    for tree in trees:
        sizes = [hi - lo for lo, hi in tree.levels]
        assert sizes == [1, 3, 9]
        # alternation: even depths are symbols, odd depths constraints
        assert (tree.depth % 2 == 1).sum() == 3


def test_tree_depth_one_for_g4():
    trees = grow_trees(all_ones_base(3, 4), 4)
    assert all(len(t.levels) == 2 for t in trees)


def test_example2_pair_and_inequality_counts():
    trees = grow_trees(all_ones_base(3, 4), 6)
    assert node_pair_count(trees) == 36
    ineqs = collect_inequalities(trees)
    assert len(ineqs) == 18
    # every inequality is a 4-cycle: four unit coefficients
    assert (np.count_nonzero(ineqs.coeffs, axis=1) == 4).all()
    assert (np.abs(ineqs.coeffs) <= 1).all()


def test_no_pairs_on_single_cycle_base():
    # a 6-cycle base graph: every node has degree 2, so trees are single paths
    b = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    from girthforge.matrices import BaseMatrix
    trees = grow_trees(BaseMatrix(b), 6)
    assert node_pair_count(trees) == 0
    ineqs = collect_inequalities(trees)
    assert len(ineqs) == 0
    assert ineqs.coeffs.shape == (0, 6) and ineqs.witness.shape == (0, 3)


@pytest.mark.parametrize("k,g,n_t,n_l", [
    (4, 8, 53, 42), (4, 10, 150, 231), (4, 12, 269, 519),
    (5, 8, 93, 90), (5, 10, 286, 645),
    (12, 8, 625, 1518),
])
def test_complexity_counts_sample(k, g, n_t, n_l):
    assert complexity_counts(all_ones_base(3, k), g) == (n_t, n_l)


def test_toy_code_fails_girth6(toy_degrees):
    system = GirthSystem(all_ones_base(3, 4), 6)
    values = degree_matrix_to_assignment(toy_degrees)
    assert not system.check(values, modulus=2)
    assert not check_assignment_sorted(system.base, 6, values, 2)


def test_published_g8_assignment_passes():
    system = GirthSystem(all_ones_base(3, 4), 8)
    w = catalog.BY_NAME["g08_k4"].degree_matrix()
    values = degree_matrix_to_assignment(w)
    assert system.check(values, 9)
    assert check_assignment_sorted(system.base, 8, values, 9)


def test_published_g12_assignment_passes_sorted():
    w = catalog.BY_NAME["g12_k4"].degree_matrix()
    values = degree_matrix_to_assignment(w)
    assert check_assignment_sorted(all_ones_base(3, 4), 12, values, 73)


def test_zero_assignment_fails():
    system = GirthSystem(all_ones_base(3, 4), 6)
    assert not system.check(np.zeros(12, dtype=np.int64), modulus=5)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(5, 16), st.sampled_from([6, 8]))
def test_list_and_sorted_checkers_agree(seed, m, g):
    rng = np.random.default_rng(seed)
    system = GirthSystem(all_ones_base(3, 4), g)
    block = rng.integers(0, m, size=(20, 12))
    assert np.array_equal(check_assignment_sorted(system.base, g, block, m),
                          system.check_batch(block, m))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(5, 16), st.sampled_from([6, 8]))
def test_checker_matches_bfs_oracle(seed, m, g):
    rng = np.random.default_rng(seed)
    system = GirthSystem(all_ones_base(3, 4), g)
    values = rng.integers(0, m, size=12).astype(np.int64)
    verdict = system.check(values, modulus=m)
    w = DegreeMatrix(values.reshape(3, 4) % m, modulus=m)
    oracle = certified_girth(lift_tailbiting(w, m), cap=32)
    assert verdict == (oracle is None or oracle >= g)


def test_checker_matches_bfs_oracle_exhaustively():
    # every assignment of a (2,3) base for M in {2,3,4}: both verdict sources
    # must agree at every target girth
    import itertools

    base = all_ones_base(2, 3)
    systems = {g: GirthSystem(base, g) for g in (4, 6, 8)}
    for m in (2, 3, 4):
        for combo in itertools.product(range(m), repeat=6):
            values = np.array(combo, dtype=np.int64)
            w = DegreeMatrix(values.reshape(2, 3), modulus=m)
            oracle = certified_girth(lift_tailbiting(w, m), cap=32)
            for g, system in systems.items():
                verdict = system.check(values, modulus=m)
                assert verdict == (oracle is None or oracle >= g), (m, combo, g)


# -- staged evaluator ----------------------------------------------------------

# unequal row and column weights: a 3x4 base with one zero in each of two rows
_IRREGULAR = DegreeMatrix(np.array([[0, 1, NO_EDGE, 2],
                                    [1, NO_EDGE, 0, 3],
                                    [2, 0, 1, 4]]))
_STAGED_BASES = {"3x4": all_ones_base(3, 4), "3x5": all_ones_base(3, 5),
                 "sts9": sts_base(CANONICAL_STS[9]), "irregular": _IRREGULAR.base()}


@pytest.mark.parametrize("g", [8, 12])
@pytest.mark.parametrize("base_name", ["3x4", "sts9", "irregular"])
def test_walk_counts_match_tree_levels(base_name, g):
    # the dart recursion behind lift_floor counts, per length, the same
    # walks that a symbol-rooted path tree holds as nodes of that depth
    base = _STAGED_BASES[base_name]
    n_vertices = base.n_rows + base.n_cols
    roots = base.n_rows + np.arange(base.n_cols)
    levels = list(_walk_counts(base, roots, g // 2 - 1))
    for j, tree in enumerate(grow_trees(base, g)):
        assert len(tree.levels) == len(levels)
        for d, (lo, hi) in enumerate(tree.levels):
            labels = tree.number[lo:hi] + (0 if d % 2 else base.n_rows)
            assert np.bincount(labels, minlength=n_vertices).tolist() == levels[d][j].tolist()


@pytest.mark.parametrize("g", [6, 8, 10])
@pytest.mark.parametrize("base_name", sorted(_STAGED_BASES))
def test_staged_evaluator_matches_full_reference(base_name, g, monkeypatch):
    # the reference evaluates every inequality row on every assignment in
    # exact integer arithmetic; large moduli give blocks that mix accepted
    # and rejected rows, so survivors reach the later chunks.  A second pass
    # with a value budget of 1 makes every chunk the minimum width, so
    # survivors cross many chunk boundaries
    system = GirthSystem(_STAGED_BASES[base_name], g)
    coeffs = collect_inequalities(grow_trees(_STAGED_BASES[base_name], g)).coeffs.astype(np.int64)
    for chunk_values in (girth_module._CHUNK_BYTES, 1):
        monkeypatch.setattr(girth_module, "_CHUNK_BYTES", chunk_values)
        rng = np.random.default_rng(g)
        for m in (1, 2, int(rng.integers(3, 100)), int(rng.integers(100, 10_000))):
            for size in (0, 1, 513):
                block = rng.integers(0, m, size=(size, system.n_edges), dtype=np.int64)
                values = block @ coeffs.T
                assert np.array_equal(system.check_batch(block, m),
                                      (values % m != 0).all(axis=1)), (m, size, chunk_values)


@pytest.mark.parametrize("g", [6, 8, 10])
@pytest.mark.parametrize("base_name", sorted(_STAGED_BASES))
def test_sorted_checker_matches_staged_evaluator(base_name, g):
    # the sorted checker walks canonical-root trees and reads no inequality;
    # signed entries exercise its reduction mod M, and the integer case
    # (no modulus) is compared with the exact inequality values
    base = _STAGED_BASES[base_name]
    system = GirthSystem(base, g)
    coeffs = collect_inequalities(grow_trees(base, g)).coeffs.astype(np.int64)
    rng = np.random.default_rng(g)
    verdicts = []
    for m in (1, 2, 7, int(rng.integers(8, 100)), int(rng.integers(100, 10_000)), None):
        span = m or 50
        block = rng.integers(-span, span, size=(400, system.n_edges))
        if m is None:
            expected = (block @ coeffs.T != 0).all(axis=1)
        else:
            expected = system.check_batch(block, m)
        found = check_assignment_sorted(base, g, block, m)
        assert found.dtype == bool and np.array_equal(found, expected), m
        verdicts.append(found)
    # M = 1 rejects every row of a base with short cycles (sts9 has none at g=6)
    verdicts = np.concatenate(verdicts)
    assert verdicts.any() and verdicts.all() == (len(coeffs) == 0)


def test_sorted_checker_shapes():
    base = all_ones_base(3, 4)
    values = degree_matrix_to_assignment(catalog.BY_NAME["g08_k4"].degree_matrix())
    assert check_assignment_sorted(base, 8, values, 9) is True
    assert check_assignment_sorted(base, 8, list(values), np.int64(9)) is True
    block = np.stack([values, np.zeros_like(values), values, values + 1])
    assert check_assignment_sorted(base, 8, block, 9).tolist() == [True, False, True, True]
    cube = check_assignment_sorted(base, 8, block.reshape(2, 2, 12), 9)
    assert cube.shape == (2, 2) and cube.tolist() == [[True, False], [True, True]]
    assert check_assignment_sorted(base, 8, block[:0], 9).shape == (0,)
    for g in (3, 5, 2):
        with pytest.raises(ValueError, match="target girth"):
            check_assignment_sorted(base, g, values, 9)


@pytest.mark.parametrize("modulus", [True, 9.0, np.float64(9), 9.5, "9", np.bool_(True), 0, -9])
def test_sorted_checker_rejects_bad_modulus(modulus):
    values = np.ones(12, dtype=np.int64)
    with pytest.raises(ValueError, match="modulus must be"):
        check_assignment_sorted(all_ones_base(3, 4), 8, values, modulus)


def test_sorted_checker_overflow_guard_boundary():
    # path voltages of the (2,2) base at g=6 reach 2e; the guard admits
    # depth x largest entry + M == 2**62 with exact verdicts and rejects one
    # more, so no int64 sum wraps (a - b - c + d = 2**63 is not zero)
    base, e = all_ones_base(2, 2), 2 ** 61
    assert check_assignment_sorted(base, 6, [e, -e, -e, e]) is True
    assert check_assignment_sorted(base, 6, [e, e, -e, -e]) is False
    assert check_assignment_sorted(base, 6, [1, 0, 0, 0], 2 ** 62 - 2) is True
    for values, modulus in (([e + 1, 0, 0, 0], None), ([0, 0, -e - 1, 0], None),
                            ([1, 0, 0, 0], 2 ** 62 - 1)):
        with pytest.raises(ValueError, match="overflow int64"):
            check_assignment_sorted(base, 6, values, modulus)
    with pytest.raises(ValueError, match="overflow int64"):
        free_girth(DegreeMatrix(np.array([[0, 2 ** 60 + 1], [0, 0]])), cap=8)


def test_checkers_reject_wrong_width():
    # the published g08_k4 values padded with 12 zeros once passed check,
    # and a (2, 6) block got two silent verdicts from check_batch
    system = GirthSystem(all_ones_base(3, 4), 8)
    values = degree_matrix_to_assignment(catalog.BY_NAME["g08_k4"].degree_matrix())
    padded = np.concatenate([values, np.zeros(12, dtype=np.int64)])
    for check, bad in ((system.check, padded), (system.check, values[:11]),
                       (system.check_batch, np.ones((2, 6), dtype=np.int64)),
                       (system.check_batch, np.ones((2, 12, 1), dtype=np.int64)),
                       (system.check, np.int64(3))):
        with pytest.raises(ValueError, match="12 entries per row"):
            check(bad, 9)
        with pytest.raises(ValueError, match="12 entries per row"):
            check_assignment_sorted(system.base, 8, bad, 9)
    assert system.check(values, 9) and check_assignment_sorted(system.base, 8, values, 9)


def test_staged_evaluator_without_inequalities_passes_everything():
    from girthforge.matrices import BaseMatrix
    cycle = BaseMatrix(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8))
    system = GirthSystem(cycle, 6)
    assert len(collect_inequalities(grow_trees(cycle, 6))) == 0
    block = np.random.default_rng(3).integers(0, 7, size=(40, system.n_edges))
    assert system.check_batch(block, 7).all()
    assert system.check(np.zeros(system.n_edges, dtype=np.int64), 1)


def test_check_matches_first_row_of_check_batch():
    system = GirthSystem(all_ones_base(3, 5), 8)
    rng = np.random.default_rng(12)
    for m in (2, 13, 97, 5000):
        block = rng.integers(0, m, size=(3, system.n_edges), dtype=np.int64)
        assert system.check(block[0], m) == system.check_batch(block, m)[0]


_RESIDUE_MODULI = [1, 2, 3, 8191, 2 ** 20]


@pytest.mark.parametrize("m", _RESIDUE_MODULI)
@pytest.mark.parametrize("j,k,g", [(2, 2, 6), (3, 4, 6), (3, 4, 8)])
def test_division_residue_matches_integer_remainder(j, k, g, m):
    # entries q*M + r, of either sign and up to the exactness bound: r in
    # {-1, 0, 1} puts many values near multiples of M, r in [0, M) spreads
    # their residues
    system = GirthSystem(all_ones_base(j, k), g)
    coeffs = collect_inequalities(grow_trees(system.base, g)).coeffs.astype(np.int64)
    l1 = int(np.abs(coeffs).sum(axis=1).max())
    rng = np.random.default_rng(g * m)
    for q_max in (3, (2 ** 53 - m) // (l1 * m) - 1):
        quotients = m * rng.integers(-q_max, q_max + 1, size=(1000, system.n_edges))
        near = quotients + rng.integers(-1, 2, size=quotients.shape)
        spread = quotients + rng.integers(0, m, size=quotients.shape)
        for block in (near, spread):
            expected = (block @ coeffs.T % m != 0).all(axis=1)
            assert np.array_equal(system.check_batch(block, m), expected), (m, q_max)
        assert (near < 0).any()
        if j == 2 and m > 1:
            # the (2,2) base has one inequality, a - b - c + d, so each
            # verdict reads one value: about half of them are multiples of M
            assert coeffs.shape == (1, 4)
            near_ok = (near @ coeffs.T % m != 0).all(axis=1)
            assert 0 < near_ok.sum() < near_ok.size


def test_exactness_guard_boundary():
    # a - b - c + d with entries +-e on the matching signs reaches |v| = 4e;
    # the guard admits 4e + M == 2**53 and rejects one more
    system = GirthSystem(all_ones_base(2, 2), 6)
    e = 2 ** 50
    aligned = np.array([[e, -e, -e, e], [-e, e, e, -e], [e, -e, -e, e - 1]])
    m = 2 ** 53 - 4 * e                     # 2**52, which divides 4e = 2**52
    assert system.check_batch(aligned, m).tolist() == [False, False, True]
    assert system.check(aligned[2], m)
    assert system.check_batch(aligned - np.sign(aligned), m + 4).tolist() == [True, True, True]
    with pytest.raises(ValueError, match="2\\*\\*53"):
        system.check_batch(aligned, m + 1)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        system.check(aligned[0], m + 1)


@pytest.mark.parametrize("g", [4, 6, 8, 10, 12])
def test_row_l1_norm_at_most_walk_length(g):
    # the exactness guard takes g - 2 as the largest row L1 norm: every row
    # is a closed walk of length at most g - 2, and (3,4) reaches it
    rng = np.random.default_rng(g)
    bases = dict(_STAGED_BASES)
    for i, k in enumerate([3, 4, 5, 6] * 2):
        entries = np.zeros((3, k), dtype=np.int64)
        entries[rng.random((3, k)) < 0.25] = NO_EDGE
        entries[rng.integers(3), rng.integers(k)] = NO_EDGE
        bases[f"random{i}"] = DegreeMatrix(entries).base()
    norms = {name: int(np.abs(collect_inequalities(grow_trees(base, g)).coeffs.astype(np.int64))
                       .sum(axis=1).max(initial=0)) for name, base in bases.items()}
    assert max(norms.values()) <= g - 2, norms
    if g in (6, 8, 10):
        assert norms["3x4"] == g - 2


def test_exactness_guard_boundary_3x4_g8():
    # the guard admits (g - 2) * e + M == 2**53, here 6e + M with e = 2**50
    # and M = 2**51, which divides 6e: a 6-cycle row signed by its own
    # coefficients times e has value 6e, zero mod M, at the largest
    # magnitude the guard allows
    system = GirthSystem(all_ones_base(3, 4), 8)
    coeffs = collect_inequalities(grow_trees(system.base, 8)).coeffs.astype(np.int64)
    e, m = 2 ** 50, 2 ** 51
    assert 6 * e + m == 2 ** 53
    six = coeffs[np.abs(coeffs).sum(axis=1) == 6]
    rng = np.random.default_rng(8)
    shifted = e * six  # one entry of each moved one step towards zero
    first = (np.arange(len(six)), np.argmax(six != 0, axis=1))
    shifted[first] -= six[first]
    block = np.concatenate([e * six, shifted,
                            rng.integers(-e, e + 1, size=(200, system.n_edges))])
    assert np.abs(block).max() == e
    expected = (block @ coeffs.T % m != 0).all(axis=1)
    assert expected.any() and not expected.all()
    assert np.array_equal(system.check_batch(block, m), expected)
    assert system.check(block[0], m) == expected[0]
    with pytest.raises(ValueError, match="2\\*\\*53"):
        system.check_batch(block, m + 1)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        system.check(block[0], m + 1)


def test_float32_boundary_3x4_g8():
    # float32 holds every integer up to 2**24 exactly, and the evaluator
    # picks it when (g - 2) * e + M <= 2**24, here 6e + M with e = 2**21 and
    # M = 2**22, which divides 6e: a 6-cycle row signed by its own
    # coefficients times e has value 6e, a multiple of M at the largest
    # magnitude float32 is used for; one more on M falls to float64
    system = GirthSystem(all_ones_base(3, 4), 8)
    coeffs = collect_inequalities(grow_trees(system.base, 8)).coeffs.astype(np.int64)
    e, m = 2 ** 21, 2 ** 22
    assert 6 * e + m == 2 ** 24
    six = coeffs[np.abs(coeffs).sum(axis=1) == 6]
    rng = np.random.default_rng(24)
    shifted = e * six
    first = (np.arange(len(six)), np.argmax(six != 0, axis=1))
    shifted[first] -= six[first]
    block = np.concatenate([e * six, shifted,
                            rng.integers(-e, e + 1, size=(200, system.n_edges))])
    assert np.abs(block).max() == e
    for modulus, dtype in ((m, np.float32), (m + 1, np.float64)):
        assert system._exact_block(block, modulus).dtype == dtype
        expected = (block @ coeffs.T % modulus != 0).all(axis=1)
        assert expected.any() and not expected.all()
        assert np.array_equal(system.check_batch(block, modulus), expected), modulus
        assert system.check(block[0], modulus) == expected[0]


def test_float64_past_the_float32_boundary():
    # a - b - c + d = 2**24 + 1 rounds to 2**24 in float32, a multiple of
    # M = 2**22; with 4e + M = 2**24 + 2**22 + 4 the block is evaluated in
    # float64, which gives the exact verdict
    system = GirthSystem(all_ones_base(2, 2), 6)
    e = 2 ** 22
    assert float(np.float32(2 ** 24 + 1)) == 2 ** 24
    block = np.array([[e + 1, -e, -e, e], [e, -e, -e, e]])
    assert system._exact_block(block, e).dtype == np.float64
    assert system.check_batch(block, e).tolist() == [True, False]
    assert system.check(block[0], e)


@pytest.mark.parametrize("entry", [2 ** 52, -2 ** 52, np.iinfo(np.int64).min])
def test_staged_evaluator_rejects_inexact_blocks(entry):
    # every (3,4) g=8 row has L1 norm >= 4, so these entries could give
    # values float64 cannot hold exactly
    system = GirthSystem(all_ones_base(3, 4), 8)
    block = np.zeros((2, system.n_edges), dtype=np.int64)
    block[1, 5] = entry
    with pytest.raises(ValueError, match="2\\*\\*53"):
        system.check_batch(block, 9)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        system.check(block[1], 9)


def test_staged_evaluator_rejects_modulus_below_one():
    # dividing by zero gives inf or NaN, whose residue test compares unequal
    # and would accept every assignment
    system = GirthSystem(all_ones_base(3, 4), 8)
    with pytest.raises(ValueError, match="modulus"):
        system.check_batch(np.ones((2, system.n_edges), dtype=np.int64), 0)


@pytest.mark.parametrize("modulus", [True, 9.0, np.float64(9), 9.5, "9", None, np.bool_(True)])
def test_staged_evaluator_rejects_non_integer_modulus(modulus):
    system = GirthSystem(all_ones_base(3, 4), 8)
    block = np.ones((2, system.n_edges), dtype=np.int64)
    with pytest.raises(ValueError, match="modulus must be an integer"):
        system.check_batch(block, modulus)
    with pytest.raises(ValueError, match="modulus must be an integer"):
        system.check(block[0], modulus)


def test_staged_evaluator_accepts_numpy_integer_modulus():
    system = GirthSystem(all_ones_base(3, 4), 8)
    values = degree_matrix_to_assignment(catalog.BY_NAME["g08_k4"].degree_matrix())
    for modulus in (np.int64(9), np.uint8(9), np.int32(9)):
        assert system.check(values, modulus)
        assert system.check_batch(values[None, :], modulus).tolist() == [True]


def test_stacked_inequalities_shortest_first():
    # the stacked matrix holds every inequality once, ordered by
    # non-decreasing support
    for base in _STAGED_BASES.values():
        system = GirthSystem(base, 10)
        ineqs = collect_inequalities(grow_trees(base, 10))
        stacked = system._matrix.astype(np.int64)
        assert stacked.shape == (len(ineqs), system.n_edges)
        assert (np.diff(np.count_nonzero(stacked, axis=1)) >= 0).all()
        assert np.array_equal(np.unique(stacked, axis=0),
                              np.unique(ineqs.coeffs, axis=0))


# -- inequality set ------------------------------------------------------------

# SHA-256 of coeffs.tobytes() + witness.tobytes() at g=10, recorded from the
# object-per-inequality implementation this array layout replaced; the
# irregular base's, from the per-label level expander the CSR gather replaced
_INEQUALITY_DIGESTS = {
    "irregular": "eccc7010bfcd42b19c8bbca8d33ef7167b12d360b51c3398e9e14c25239fff23",
    "3x4": "be2bc2228ef76badd732aa6b2474ebd3f21fa1b804f58864c64353dc55cdcf00",
    "3x5": "e6b0717eb9cef9fdb3c1de53289eedf589bd8a72635851d3a4321060a23b29cd",
    "sts9": "82c493430ac5ec66e82e01a830004551d2c24703880d427d4f10eb7246dd5788",
}


@pytest.mark.parametrize("base_name", sorted(_INEQUALITY_DIGESTS))
def test_inequality_set_pinned(base_name):
    ineqs = collect_inequalities(grow_trees(_STAGED_BASES[base_name], 10))
    assert ineqs.coeffs.dtype == np.int8 and ineqs.witness.dtype == np.int64
    digest = hashlib.sha256(ineqs.coeffs.tobytes() + ineqs.witness.tobytes())
    assert digest.hexdigest() == _INEQUALITY_DIGESTS[base_name]


@pytest.mark.parametrize("g", [8, 10])
@pytest.mark.parametrize("base_name", sorted(_STAGED_BASES))
def test_inequality_set_invariants(base_name, g):
    trees = grow_trees(_STAGED_BASES[base_name], g)
    ineqs = collect_inequalities(trees)
    coeffs, witness = ineqs.coeffs, ineqs.witness
    assert len(ineqs) == coeffs.shape[0] == witness.shape[0] > 0
    # the first nonzero entry of each row is positive
    first = np.argmax(coeffs != 0, axis=1)
    assert (coeffs[np.arange(len(ineqs)), first] > 0).all()
    # each row is +-(voltages[u] - voltages[v]) in its witness tree
    diffs = np.array([trees[t].voltages[u] - trees[t].voltages[v]
                      for t, u, v in witness.tolist()])
    assert ((coeffs == diffs).all(axis=1) | (coeffs == -diffs).all(axis=1)).all()
    # rows are pairwise distinct, witnesses ordered by tree
    assert np.unique(coeffs, axis=0).shape[0] == len(ineqs)
    assert (np.diff(witness[:, 0]) >= 0).all()


def _pair_test_bases():
    bases = dict(_STAGED_BASES)
    rng = np.random.default_rng(18)
    for i, (rows, cols) in enumerate([(3, 4), (3, 5), (4, 6), (3, 6)]):
        entries = rng.integers(0, 8, size=(rows, cols))
        entries[rng.random((rows, cols)) < 0.25] = NO_EDGE
        entries[rng.integers(rows), rng.integers(cols)] = NO_EDGE
        bases[f"random{i}"] = DegreeMatrix(entries).base()
    return bases


_PAIR_BASES = _pair_test_bases()


def _reference_preorder(tree):
    """Node numbers in preorder, children in creation order, by recursion."""
    children = [[] for _ in range(tree.n_nodes)]
    for node in range(1, tree.n_nodes):
        children[tree.parent[node]].append(node)
    order = []

    def visit(node):
        order.append(node)
        for child in children[node]:
            visit(child)

    visit(0)
    return order


@pytest.mark.parametrize("g", [6, 8, 10])
@pytest.mark.parametrize("base_name", sorted(_PAIR_BASES))
def test_pair_enumeration_matches_preorder_double_loop(base_name, g):
    for tree in grow_trees(_PAIR_BASES[base_name], g):
        preorder = _reference_preorder(tree)
        rank = girth_module._dfs_rank(tree)
        assert rank.tolist() == np.argsort(preorder).tolist()
        depth, label = tree.depth.tolist(), tree.number.tolist()
        expected = [(a, b) for i, a in enumerate(preorder) for b in preorder[i + 1:]
                    if depth[a] == depth[b] >= 2 and label[a] == label[b]]
        u, v = girth_module._candidate_pairs(tree)
        assert list(zip(u.tolist(), v.tolist())) == expected
        assert node_pair_count([tree]) == u.size


def _reference_first_occurrences(keys):
    first = {}
    for i, column in enumerate(keys.T.tolist()):
        first.setdefault(tuple(column), i)
    return sorted(first.values())


@pytest.mark.parametrize("multiplier", [girth_module._HASH_MULTIPLIER, 0])
def test_first_occurrences_matches_dict_reference(multiplier, monkeypatch):
    # a zero multiplier hashes every key alike: one run, settled exactly
    monkeypatch.setattr(girth_module, "_HASH_MULTIPLIER", multiplier)
    rng = np.random.default_rng(3)
    cases = [np.zeros((n_words, n), dtype=np.int64) for n_words in (1, 3) for n in (0, 1, 2)]
    cases.append(np.array([[5, 5], [-1, 1]]))
    for n_words in (1, 2, 3):
        for n in (2, 7, 300, 5000):
            for bound in (3, 2 ** 62):
                distinct = rng.integers(-bound, bound, size=(n_words, max(1, n // 4)))
                distinct[:, :2] = 0  # all-zero columns
                distinct[:, -1:] = -bound
                cases.append(distinct[:, rng.integers(0, distinct.shape[1], size=n)])
    for keys in cases:
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        assert girth_module._first_occurrences(keys).tolist() \
            == _reference_first_occurrences(keys), keys.shape


@pytest.mark.parametrize("base_name", sorted(_INEQUALITY_DIGESTS))
def test_inequality_set_pinned_when_every_hash_collides(base_name, monkeypatch):
    # every key in one run: only the exact path can give the pinned sets
    monkeypatch.setattr(girth_module, "_HASH_MULTIPLIER", 0)
    ineqs = collect_inequalities(grow_trees(_STAGED_BASES[base_name], 10))
    digest = hashlib.sha256(ineqs.coeffs.tobytes() + ineqs.witness.tobytes())
    assert digest.hexdigest() == _INEQUALITY_DIGESTS[base_name]


# SHA-256 as in _INEQUALITY_DIGESTS, at g=12, recorded before node pairs
# were pruned
_INEQUALITY_DIGESTS_G12 = {
    "irregular": "3a2c732634944663a4f20030039615aa1e1af8f1b31953aaa0e426f01b6c5342",
    "3x4": "deafedf6664b3957dd1d3c355042f8cd07e370f9c1e0264fd89f82802f0eca3d",
    "3x5": "a7bffaf6047c8cb45c54cd221c58161f9216449816c378cb6a71867ab0fbaf0b",
    "sts9": "79827c8f9f7689df6b0365c376b2fc1785094e4c7ffcf004c3619e5a9f308be5",
}


@pytest.mark.parametrize("multiplier", [girth_module._HASH_MULTIPLIER, 0])
@pytest.mark.parametrize("base_name", sorted(_INEQUALITY_DIGESTS_G12))
def test_inequality_set_pinned_g12(base_name, multiplier, monkeypatch):
    monkeypatch.setattr(girth_module, "_HASH_MULTIPLIER", multiplier)
    ineqs = collect_inequalities(grow_trees(_STAGED_BASES[base_name], 12))
    digest = hashlib.sha256(ineqs.coeffs.tobytes() + ineqs.witness.tobytes())
    assert digest.hexdigest() == _INEQUALITY_DIGESTS_G12[base_name]


def _reference_row(tree, u, v):
    """voltages[u] - voltages[v] as a tuple, first nonzero entry positive."""
    row = [int(a) - int(b) for a, b in zip(tree.voltages[u], tree.voltages[v])]
    lead = next((x for x in row if x), 1)
    return tuple(x if lead > 0 else -x for x in row)


def _reference_inequalities(trees):
    """{row: (tree, u, v)} of each row's first pair in a double loop over
    every tree's preorder node list, trees in list order; no pruning."""
    first = {}
    for t_idx, tree in enumerate(trees):
        preorder = _reference_preorder(tree)
        depth, label = tree.depth.tolist(), tree.number.tolist()
        for i, a in enumerate(preorder):
            for b in preorder[i + 1:]:
                if depth[a] == depth[b] >= 2 and label[a] == label[b]:
                    first.setdefault(_reference_row(tree, a, b), (t_idx, a, b))
    return first


_REFERENCE_CASES = [(name, g) for name in sorted(_PAIR_BASES) for g in (6, 8, 10)]
_REFERENCE_CASES.append(("sts13", 8))


@pytest.mark.parametrize("base_name,g", _REFERENCE_CASES)
def test_inequality_set_matches_unpruned_reference(base_name, g):
    # tree order decides which symbols are earlier: a reversed list, a
    # partial one and one that mixes two depths must still give the
    # unpruned first witnesses
    base = sts_base(CANONICAL_STS[13]) if base_name == "sts13" else _PAIR_BASES[base_name]
    trees = grow_trees(base, g)
    shallow = grow_trees(base, g - 2)
    mixed = [deep if j % 2 else flat for j, (deep, flat) in enumerate(zip(trees, shallow))]
    for order in (trees, trees[::-1], trees[1::2], mixed[::-1]):
        ineqs = collect_inequalities(order)
        first = _reference_inequalities(order)
        assert ineqs.coeffs.tolist() == [list(row) for row in first]
        assert ineqs.witness.tolist() == [list(w) for w in first.values()]


@pytest.mark.parametrize("g", [6, 8, 10])
@pytest.mark.parametrize("base_name", sorted(_PAIR_BASES))
def test_pruned_pairs_have_rows_of_earlier_trees(base_name, g):
    trees = grow_trees(_PAIR_BASES[base_name], g)
    earlier_rows, dropped = set(), 0
    for tree, earlier in zip(trees, girth_module._earlier_symbols(trees)):
        full = list(zip(*(a.tolist() for a in girth_module._candidate_pairs(tree))))
        kept = list(zip(*(a.tolist() for a in girth_module._candidate_pairs(tree, earlier))))
        remaining = iter(full)
        assert all(pair in remaining for pair in kept)  # in-order subsequence
        rows = {pair: _reference_row(tree, *pair) for pair in full}
        for pair in set(full) - set(kept):
            assert rows[pair] in earlier_rows, pair
            dropped += 1
        earlier_rows.update(rows.values())
    assert dropped or g == 6  # sts9 has no 4-cycles, so nothing drops at g=6


@pytest.mark.parametrize("chunk", [1, 3, girth_module._ROW_CHUNK])
@pytest.mark.parametrize("g", [8, 10])
@pytest.mark.parametrize("base_name", sorted(_STAGED_BASES))
def test_rows_built_in_chunks_match_one_block(base_name, g, chunk, monkeypatch):
    # rows are built from the witnesses in chunks of at most _ROW_CHUNK rows
    # inside one tree's slice; any chunk size gives the same coefficients
    # and the same support-sorted matrix
    base = _STAGED_BASES[base_name]
    trees = grow_trees(base, g)
    ineqs = collect_inequalities(trees)
    coeffs = np.array([_reference_row(trees[t], u, v) for t, u, v in ineqs.witness.tolist()],
                      dtype=np.int8)
    monkeypatch.setattr(girth_module, "_ROW_CHUNK", chunk)
    first = collect_inequalities(trees)
    first_coeffs = first.coeffs  # read before len() and witness
    assert len(first) == len(ineqs) and np.array_equal(first.witness, ineqs.witness)
    assert first_coeffs.tobytes() == coeffs.tobytes() == ineqs.coeffs.tobytes()
    assert first.coeffs is first_coeffs  # built once
    order = np.argsort(np.count_nonzero(coeffs, axis=1), kind="stable")
    matrix = GirthSystem(base, g)._matrix
    assert matrix.dtype == np.int8 and matrix.tobytes() == coeffs[order].tobytes()


def test_complexity_counts_build_no_row(monkeypatch):
    # N_T and N_L need only the witnesses: no coefficient row is built
    chunks = []
    row_chunks = InequalitySet.row_chunks

    def spy(self):
        chunks.append(len(self))
        return row_chunks(self)

    monkeypatch.setattr(InequalitySet, "row_chunks", spy)
    assert complexity_counts(all_ones_base(3, 5), 10) == (286, 645)
    assert complexity_counts(all_ones_base(3, 4), 12) == (269, 519)
    assert chunks == []
    assert collect_inequalities(grow_trees(all_ones_base(3, 4), 12)).coeffs.shape == (519, 12)
    assert chunks == [519]  # the spy sees the rows that coeffs builds


def _traced_peak(build):
    """(result, tracemalloc peak of build() above the memory traced before it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def test_complexity_counts_memory_of_largest_cell():
    # (3,12) at g = 12, the largest table cell: 251,889 inequalities of 36
    # edges would take 9.1 MB as int8 rows; the counts build none, and the
    # dedup keeps one gather buffer and drops its hash before the gathers
    counts, peak = _traced_peak(lambda: complexity_counts(all_ones_base(3, 12), 12))
    assert counts == (9457, 251889)
    assert peak <= 22e6


def test_girth_system_build_memory_within_matrix_bound():
    # 959,667 rows of 60 edges, 57.6 MB: the matrix is filled in chunks
    # straight from the witnesses, so no unsorted copy of it is built
    base = shorten_sts_base(sts_base(CANONICAL_STS[13]), 6)
    system, peak = _traced_peak(lambda: GirthSystem(base, 18))
    assert system._matrix.shape == (959667, 60)
    assert peak <= 2.3 * system._matrix.nbytes


def test_lift_girth_at_least_base_girth():
    # the lifted graph covers the base graph, so girth can only grow
    from girthforge.bases import sts_base, CANONICAL_STS
    from girthforge.bounds import base_girth
    from girthforge.search import assignment_to_degree_matrix

    base = sts_base(CANONICAL_STS[9])
    g_base = base_girth(base)
    rng = np.random.default_rng(7)
    for m in (2, 5, 9):
        block = rng.integers(0, m, size=(5, int(base.entries.sum())), dtype=np.int64)
        for values in block:
            w = assignment_to_degree_matrix(base, values, modulus=m)
            g = certified_girth(lift_tailbiting(w, m), cap=32)
            assert g is None or g >= g_base


# -- BFS oracle ----------------------------------------------------------------

def test_oracle_girth_of_toy_circulant(toy_degrees):
    h = lift_circulant(toy_degrees, 2)
    assert girth_bfs_oracle(h) == 4


def test_oracle_acyclic_returns_none():
    h = SparseParityCheck.from_dense(np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8))
    assert girth_bfs_oracle(h) is None


def test_oracle_girth10_code():
    entry = catalog.BY_NAME["g10_k4"]
    h = lift_tailbiting(entry.degree_matrix(), entry.m)
    assert certified_girth(h) == 10


def test_oracle_orbit_starts_match_full_scan():
    entry = catalog.BY_NAME["g06_k4"]
    h = lift_tailbiting(entry.degree_matrix(), entry.m)
    assert certified_girth(h) == girth_bfs_oracle(h) == 6


def test_orbit_starts_of_one_side_match_every_start():
    # certified_girth starts one BFS per shift orbit of the side with fewer
    # orbits; every vertex as a start is the reference.  Bases of 1-5 rows
    # and 1-5 columns, taller and wider ones alike, lose entries to NO_EDGE
    # at a random rate
    rng = np.random.default_rng(29)
    sides, girths = set(), set()
    for lift in (lift_tailbiting, lift_circulant) * 30:
        cb, c, m = (int(x) for x in rng.integers(1, [6, 6, 10]))
        entries = rng.integers(0, m, size=(cb, c))
        entries[rng.random((cb, c)) < rng.uniform(0, 0.5)] = NO_EDGE
        h = lift(DegreeMatrix(entries, modulus=m), m)
        # a lifted symbol has one neighbour per base row it meets, so every
        # cycle meets two orbits of each side and no single dropped orbit
        # could change a girth: the start count is pinned as well
        starts = qc_start_vertices(h)
        assert len(starts) == max(1, min(cb, c) - 1)
        sides.add((cb > c, starts[0] >= h.n_rows))
        for cap in range(4, 33, 2):
            expected = girth_bfs_oracle(h, cap)
            assert certified_girth(h, cap) == expected, (entries, m, cap)
        girths.add(expected)
    assert sides == {(False, False), (True, True)}
    assert {None, 4, 6} < girths


def _oracle_cases(rng):
    """(h, start sets) pairs: edge cases, seeded random dense H with every
    start and a random subset, and random lifts from their orbit starts."""
    dense = [np.zeros((0, 0)), np.zeros((3, 4)),              # no vertices; no edges
             [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]],      # a path: acyclic
             [[1, 1, 0], [1, 1, 0], [0, 0, 0]]]               # a 4-cycle, zero row and column
    dense += [rng.random((rng.integers(1, 8), rng.integers(1, 11))) < rng.uniform(0.1, 0.6)
              for _ in range(80)]
    for a in dense:
        h = SparseParityCheck.from_dense(np.asarray(a, dtype=np.uint8))
        n_v = h.n_rows + h.n_cols
        yield h, (None, rng.choice(n_v, int(rng.integers(0, n_v + 1)), replace=False).tolist())
    for lift in (lift_tailbiting, lift_circulant) * 15:
        m = int(rng.integers(1, 8))
        entries = rng.integers(-1, m, size=(int(rng.integers(2, 4)), int(rng.integers(2, 6))))
        h = lift(DegreeMatrix(entries, modulus=m), m)
        yield h, (None, qc_start_vertices(h))


def test_oracle_matches_per_vertex_reference(monkeypatch):
    # a second pass shrinks the chunk to three starts, so every start set
    # larger than that crosses a chunk boundary
    rng = np.random.default_rng(2024)
    default = girth_module._BFS_BLOCK
    for h, start_sets in _oracle_cases(rng):
        slots = 1 + h.n_rows + h.n_cols + 2 * h.indices.size
        for block in (default, 3 * slots):
            monkeypatch.setattr(girth_module, "_BFS_BLOCK", block)
            for cap in (4, 6, 8, 12, 32):
                for starts in start_sets:
                    expected = reference_girth(h, cap, starts)
                    assert girth_bfs_oracle(h, cap, starts) == expected, (h, cap, starts)


def test_oracle_memory_stays_within_three_matrices():
    # g18_k5 (n = 271,760, 815,280 ones) is the largest corpus lift.  The
    # oracle holds h.transpose() and per-start state the size of the ball,
    # and building the transpose holds the row of each one beside its keys:
    # about 2.5x h.indices.nbytes in all
    entry = catalog.BY_NAME["g18_k5"]
    h = lift_tailbiting(entry.degree_matrix(), entry.m)
    girth, peak = _traced_peak(lambda: certified_girth(h))
    assert girth == entry.girth == 18
    assert peak <= 3 * h.indices.nbytes


@pytest.mark.parametrize("name", ["g06_k4", "g10_k4", "g12_k4"])
def test_oracle_finds_no_cycle_below_the_girth(name):
    entry = catalog.BY_NAME[name]
    h = lift_tailbiting(entry.degree_matrix(), entry.m)
    assert certified_girth(h, cap=entry.girth - 2) is None
    assert certified_girth(h, cap=entry.girth) == entry.girth


def test_oracle_rejects_start_outside_graph():
    # -1 used to wrap to the last vertex and report girth 2
    entry = catalog.BY_NAME["g06_k4"]
    h = lift_tailbiting(entry.degree_matrix(), entry.m)
    for bad in (-1, h.n_rows + h.n_cols):
        with pytest.raises(ValueError, match="start vertices"):
            girth_bfs_oracle(h, start_vertices=[0, bad])
    assert girth_bfs_oracle(h, start_vertices=[]) is None


def test_oracle_rejects_non_integer_starts():
    # [1.5] used to be truncated and run from vertex 1
    entry = catalog.BY_NAME["g06_k4"]
    h = lift_tailbiting(entry.degree_matrix(), entry.m)
    for bad in ([1.5], [0, 1.0], [True], [0, False], np.array([1.0]),
                np.array([True]), ["1"], [None]):
        with pytest.raises(ValueError, match="start vertices must be integers"):
            girth_bfs_oracle(h, start_vertices=bad)
    starts = qc_start_vertices(h)
    expected = girth_bfs_oracle(h, start_vertices=starts)
    assert expected == 6
    for good in (np.array(starts), np.array(starts, dtype=np.uint32),
                 [np.int64(s) for s in starts], tuple(starts)):
        assert girth_bfs_oracle(h, start_vertices=good) == expected


def test_theorem1_lift_girth_at_most_free_girth():
    for name in ("g06_k4", "g08_k4", "g10_k4", "g12_k4", "g14_k4"):
        entry = catalog.BY_NAME[name]
        w = entry.degree_matrix()
        g_lift = certified_girth(lift_tailbiting(w, entry.m))
        g_free = free_girth(w, cap=entry.girth + 4)
        assert g_free is None or g_lift <= g_free


# -- free girth ------------------------------------------------------------------

def test_free_girth_toy_code(toy_degrees):
    assert free_girth(toy_degrees, cap=8) == 4


def test_free_girth_acyclic_base():
    w = DegreeMatrix(np.array([[0, 1], [NO_EDGE, 0]]))
    assert free_girth(w, cap=12) is None


def test_free_girth_g8_table_entry():
    w = catalog.BY_NAME["g08_k4"].degree_matrix()
    g = free_girth(w, cap=12)
    assert g is None or g >= 8


def _free_girth_by_inequalities(w: DegreeMatrix, cap: int) -> int | None:
    """Smallest even L <= cap at which the integer inequality values of the
    girth-(L + 2) system, whose walks are those shorter than L + 2, have a
    zero; None if there is none."""
    values = degree_matrix_to_assignment(w)
    for length in range(4, cap + 1, 2):
        coeffs = collect_inequalities(grow_trees(w.base(), length + 2)).coeffs.astype(np.int64)
        if (values @ coeffs.T == 0).any():
            return length
    return None


@pytest.mark.parametrize("cap", [8, 12])
def test_free_girth_matches_inequality_engine(toy_degrees, cap):
    matrices = [toy_degrees, _IRREGULAR]
    matrices += [catalog.BY_NAME[name].degree_matrix()
                 for name in ("g06_k4", "g08_k4", "g06_k5", "g08_k5")]
    rng = np.random.default_rng(cap)
    for k in [3, 4, 5, 6] * 5:
        entries = rng.integers(0, 12, size=(3, k))
        entries[rng.random((3, k)) < 0.25] = NO_EDGE
        entries[rng.integers(3), rng.integers(k)] = NO_EDGE
        matrices.append(DegreeMatrix(entries))
    found = [free_girth(w, cap) for w in matrices]
    assert found == [_free_girth_by_inequalities(w, cap) for w in matrices]
    # the cases reach every outcome: short cycles, long ones, none within cap
    assert {4, 6, None} <= set(found) and any(g is not None and g >= 8 for g in found)


def test_bipartite_girth_is_even():
    for name in ("g06_k5", "g08_k6"):
        entry = catalog.BY_NAME[name]
        g = certified_girth(lift_tailbiting(entry.degree_matrix(), entry.m))
        assert g is not None and g % 2 == 0
