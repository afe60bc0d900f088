from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthforge.lifting import lift_circulant, lift_tailbiting, reorder_to_circulant
from girthforge.matrices import (NO_EDGE, DegreeMatrix, SparseParityCheck, csr_from_pairs,
                                 emit_alist, gf2_rank, parse_alist)
from girthforge import catalog, gf2

from conftest import TOY_TB, TOY_CIRC, toggle_row


def test_lift_tailbiting_matches_golden(toy_degrees):
    h = lift_tailbiting(toy_degrees, 2)
    assert np.array_equal(h.to_dense(), TOY_TB)
    assert h.lift == (toy_degrees, "tailbiting")


def test_lift_circulant_matches_golden(toy_degrees):
    h = lift_circulant(toy_degrees, 2)
    assert np.array_equal(h.to_dense(), TOY_CIRC)


# SHA-256 of indptr.tobytes() + indices.tobytes(), taken from the earlier
# tuple-of-rows lifts: the CSR lifts are row-for-row identical to them
LIFT_PINS = {
    ("g06_k4", "tailbiting"): "819a3fac862d6af7927dea9b13783f564613eac5cb1922bc8893ed8dd0643ad2",
    ("g06_k4", "circulant"): "1f5a11586d54a76c1f2a6d3c110b066f3d6f0cef0b5963385f2627b774d1417e",
    ("g12_k4", "tailbiting"): "b010e9c71ad78f184bbeacc09b85e9003dfa67ed5c0df8d5dc9cfc12024ff62d",
    ("g12_k4", "circulant"): "ad28d66a2a7a08947d87f40091d155e65d60ee6df820688f6855d16403586b4c",
    ("g14_k4", "tailbiting"): "91bf80cf5582fc2e6767eb569c50f0d7e5117f29d20e78c633bb539dc11fe40b",
    ("g14_k4", "circulant"): "bb361f3225ffad89adceebe8e783c3b7afb22b2762af64d73d3b424b26f4f728",
    ("g16_k5", "tailbiting"): "4b62a7a37afb3761100bf0657a8c3ffd56f1b995ba7177a1f1e2f91b5c3a3e41",
    ("g16_k5", "circulant"): "9855cec13e6e01501d94ab30dcd2a2e755e3b4a5bdde5e9cfa26a7ef9609aabd",
}


@pytest.mark.parametrize("name, layout", sorted(LIFT_PINS))
def test_lift_pinned(name, layout):
    entry = catalog.BY_NAME[name]
    lift = lift_tailbiting if layout == "tailbiting" else lift_circulant
    h = lift(entry.degree_matrix(), entry.m)
    digest = hashlib.sha256(h.indptr.tobytes() + h.indices.tobytes()).hexdigest()
    assert digest == LIFT_PINS[name, layout]
    assert h.indptr.dtype == h.indices.dtype == np.int64


def reference_lift(w: DegreeMatrix, m: int, layout: str) -> SparseParityCheck:
    """The lift by the module docstring's formulas, one Python step per one."""
    cb, c = w.n_rows, w.n_cols
    dense = np.zeros((m * cb, m * c), dtype=np.uint8)
    for (i, j), deg in np.ndenumerate(w.entries):
        for s in range(m) if deg != NO_EDGE else ():
            if layout == "tailbiting":
                dense[((s + deg) % m) * cb + i, s * c + j] = 1
            else:
                dense[i * m + s, j * m + (s - deg) % m] = 1
    return SparseParityCheck.from_dense(dense)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lifts_match_reference_random(data):
    m = data.draw(st.integers(1, 13))
    cb, c = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 6))
    entries = data.draw(st.lists(st.integers(NO_EDGE, m - 1), min_size=cb * c, max_size=cb * c))
    w = DegreeMatrix(np.array(entries).reshape(cb, c), modulus=m)
    for layout, lift in (("tailbiting", lift_tailbiting), ("circulant", lift_circulant)):
        h = lift(w, m)
        assert h == reference_lift(w, m, layout)
        assert h.lift == (w, layout)


def keyed_lift(w: DegreeMatrix, m: int, layout: str) -> SparseParityCheck:
    """The lift by the module docstring's formulas, its ones ordered by one
    sort of their int64 keys."""
    ei, ej = np.nonzero(w.entries != NO_EDGE)
    ew, s = w.entries[ei, ej], np.arange(m)[:, None]
    if layout == "tailbiting":
        rows, cols = ((s + ew) % m) * w.n_rows + ei, s * w.n_cols + ej
    else:
        rows, cols = ei * m + s, ej * m + (s - ew) % m
    return SparseParityCheck(m * w.n_cols, *csr_from_pairs(m * w.n_rows, m * w.n_cols, rows, cols))


def test_corpus_lifts_match_keyed_reference():
    # reference_lift is dense, so this is the check that reaches M in the thousands
    for entry in catalog.CATALOG:
        w = entry.degree_matrix()
        for layout, lift in (("tailbiting", lift_tailbiting), ("circulant", lift_circulant)):
            assert lift(w, entry.m) == keyed_lift(w, entry.m, layout), (entry.name, layout)


def negated_transpose(w: DegreeMatrix, m: int) -> DegreeMatrix:
    """The degree matrix of the transposed lift: w transposed, degrees negated mod M."""
    e = w.entries
    return DegreeMatrix(np.where(e == NO_EDGE, NO_EDGE, -e % m).T, modulus=m)


def duality_cases():
    for entry in catalog.CATALOG:
        yield entry.degree_matrix(), entry.m
    rng = np.random.default_rng(31)
    for _ in range(40):  # holes, repeated degrees and whole empty base rows
        m = int(rng.integers(1, 24))
        cb, c = int(rng.integers(1, 5)), int(rng.integers(2, 8))
        entries = rng.integers(0, min(m, int(rng.integers(1, 6))), size=(cb, c))
        entries[rng.random((cb, c)) < 0.3] = NO_EDGE
        if rng.random() < 0.25:
            entries[int(rng.integers(cb))] = NO_EDGE
        yield DegreeMatrix(entries, modulus=m), m


def test_transpose_is_lift_of_negated_transpose():
    # ties the transposed CSR the BFS oracle reads to the lift formula by a second path
    for w, m in duality_cases():
        dual = negated_transpose(w, m)
        for lift in (lift_tailbiting, lift_circulant):
            assert lift(w, m).transpose() == lift(dual, m), (w.entries.tolist(), m)


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
    h_c, col_perm, row_perm = reorder_to_circulant(h_tb)
    assert h_c == lift_circulant(toy_degrees, 2)
    assert (col_perm + 1).tolist() == [1, 5, 2, 6, 3, 7, 4, 8]
    assert (row_perm + 1).tolist() == [1, 4, 2, 5, 3, 6]


def test_reorder_identity_at_m1():
    w = DegreeMatrix(np.zeros((3, 4), dtype=np.int64))
    h = lift_tailbiting(w, 1)
    _, col_perm, row_perm = reorder_to_circulant(h)
    assert col_perm.tolist() == list(range(4))
    assert row_perm.tolist() == list(range(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 11))
def test_reorder_equivalence_random(seed, m):
    rng = np.random.default_rng(seed)
    w = DegreeMatrix(rng.integers(0, m, size=(3, 4)), modulus=m)
    h_tb = lift_tailbiting(w, m)
    _, col_perm, row_perm = reorder_to_circulant(h_tb)
    assert np.array_equal(h_tb.to_dense()[row_perm][:, col_perm],
                          lift_circulant(w, m).to_dense())


def test_reorder_rejects_non_tailbiting_input():
    # reordering a circulant lift once labelled a non-lift CIRCULANT, and the
    # orbit-start BFS then read girth 6 where the full BFS reads 4
    from girthforge.girth import certified_girth, girth_bfs_oracle

    w = DegreeMatrix(np.array([[3, 1, 1, 1], [3, 2, 3, 4], [2, 3, 4, 1]]), modulus=5)
    tb, ci = lift_tailbiting(w, 5), lift_circulant(w, 5)
    with pytest.raises(ValueError):
        reorder_to_circulant(ci)
    with pytest.raises(ValueError):  # the same ones, built from arrays: no lift
        reorder_to_circulant(SparseParityCheck(tb.n_cols, tb.indptr, tb.indices))
    reordered, _, _ = reorder_to_circulant(tb)
    assert reordered == ci
    assert certified_girth(reordered) == girth_bfs_oracle(ci) == 4


def test_regular_weights_both_layouts():
    entry = catalog.BY_NAME["g08_k4"]
    for lift in (lift_tailbiting, lift_circulant):
        h = lift(entry.degree_matrix(), entry.m)
        assert set(np.diff(h.transpose().indptr).tolist()) == {3}
        assert set(np.diff(h.indptr).tolist()) == {4}


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
    layouts = (tb, lift_circulant(w, m), reorder_to_circulant(tb)[0])
    dense_calls.clear()
    for h in layouts:
        assert gf2_rank(h) == expected
    assert dense_calls == []
    # an edited lift carries no degree matrix: the QC engine must not be used
    for h in layouts:
        edited = toggle_row(h, int(rng.integers(h.n_rows)), {int(rng.integers(h.n_cols))})
        dense_calls.clear()
        assert gf2_rank(edited) == dense_rank(edited)
        assert dense_calls[0] == h.n_cols


def test_only_lifts_carry_their_degree_matrix(dense_calls):
    # g06_k4's tailbiting lift with column 5 added to row 14: once it could
    # keep the lift's metadata, and certified_girth read girth 6 from the
    # orbit starts where a BFS from every vertex reads 4
    from girthforge.girth import certified_girth, girth_bfs_oracle
    from girthforge.mindist import min_distance_md

    entry = catalog.BY_NAME["g06_k4"]
    w = entry.degree_matrix()
    tb = lift_tailbiting(w, entry.m)
    assert 5 not in tb.indices[tb.indptr[14]:tb.indptr[15]]
    edited = toggle_row(tb, 14, {5})
    assert edited.lift is None
    assert certified_girth(edited) == girth_bfs_oracle(edited) == 4
    assert gf2_rank(edited) == 14 and dense_calls == [edited.n_cols]
    with pytest.raises(ValueError):
        min_distance_md(edited, 26)
    for h in (tb.transpose(), SparseParityCheck.from_dense(tb.to_dense()),
              parse_alist(emit_alist(tb)), dataclasses.replace(tb, indices=tb.indices.copy())):
        assert h.lift is None
    ci, reordered = lift_circulant(w, entry.m), reorder_to_circulant(tb)[0]
    assert tb.lift == (w, "tailbiting")
    assert ci.lift == reordered.lift == (w, "circulant")


def test_tailbiting_code_dimensions():
    entry = catalog.BY_NAME["g06_k4"]
    h = lift_tailbiting(entry.degree_matrix(), entry.m)
    assert h.n_cols == 20
    assert h.n_cols - gf2_rank(h) == 7
    with pytest.raises(ValueError):
        lift_tailbiting(entry.degree_matrix(), 3)
