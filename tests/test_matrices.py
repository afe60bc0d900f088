from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthforge.lifting import lift_tailbiting
from girthforge.matrices import (NO_EDGE, BaseMatrix, DegreeMatrix, FormatError,
                                 SparseParityCheck, emit_alist, emit_degree_matrix,
                                 gf2_rank, parse_alist, parse_degree_matrix)
from girthforge import catalog, matrices

from conftest import TOY_TB


def test_base_matrix_validation():
    with pytest.raises(ValueError):
        BaseMatrix(np.array([[0, 2]]))
    with pytest.raises(ValueError):
        BaseMatrix(np.ones((1, 1)))
    with pytest.raises(ValueError):
        BaseMatrix(np.ones((2, 3)), regularity=(3, 3))
    b = BaseMatrix(np.ones((2, 3)), regularity=(2, 3))
    assert b.n_rows == 2 and b.n_cols == 3


def test_degree_matrix_distinguishes_no_edge_from_zero():
    w = DegreeMatrix(np.array([[0, NO_EDGE], [1, 0]]), modulus=2)
    assert w.has_no_edge()
    assert w.base().entries.tolist() == [[1, 0], [1, 1]]
    with pytest.raises(ValueError):
        DegreeMatrix(np.array([[2, 0]]), modulus=2)
    with pytest.raises(ValueError):
        DegreeMatrix(np.array([[-3, 0]]))


@pytest.mark.parametrize("modulus", [2.5, 5.0, np.float64(5), True, np.bool_(True), "5", 0, -5])
def test_degree_matrix_rejects_bad_modulus(modulus):
    # a float, bool or string M is refused, not lifted: numpy used to fail
    # inside the lift on 5.0 and to take 2.5 as a modulus
    entries = np.array([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="modulus must be"):
        DegreeMatrix(entries, modulus=modulus)
    with pytest.raises(ValueError, match="modulus must be"):
        lift_tailbiting(DegreeMatrix(entries), modulus)


def test_degree_matrix_takes_numpy_integer_modulus():
    w = DegreeMatrix(np.array([[0, 1], [1, 0]]), modulus=np.int32(5))
    assert w.modulus == 5 and type(w.modulus) is int
    assert w == DegreeMatrix(w.entries, modulus=5)


# -- degree-matrix text format ------------------------------------------------

def test_parse_degree_matrix_example():
    w = parse_degree_matrix("M=5\n0 1 2 4\n0 3 1 2\n0 0 0 0\n")
    assert w.modulus == 5
    assert w.entries.shape == (3, 4)
    assert not w.has_no_edge()


def test_parse_degree_matrix_no_edge_token():
    w = parse_degree_matrix("0 1 2\n0 - 1\n")
    assert w.entries[1, 1] == NO_EDGE


@pytest.mark.parametrize("text", [
    "M=5\n0 1\n0 1 2\n",       # ragged rows
    "M=5\n0 -1\n",             # negative degree
    "M=5\n0 7\n",              # degree >= M
    "",                        # empty
    "M=5\n# no rows\n",        # a modulus line and no rows
    "M=x\n0 1\n",              # bad modulus
    "M=0\n- -\n",              # modulus below 1
    b"M=5\n0 \xe9\n",          # not ASCII
])
def test_parse_degree_matrix_errors(text):
    with pytest.raises(FormatError):
        parse_degree_matrix(text)


def test_degree_matrix_round_trip_catalog():
    for entry in [e for e in catalog.CATALOG if e.m <= 200]:
        w = entry.degree_matrix()
        assert parse_degree_matrix(emit_degree_matrix(w)) == w


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_degree_matrix_round_trip_random(data):
    rows = data.draw(st.integers(1, 5))
    cols = data.draw(st.integers(1, 7))
    m = data.draw(st.one_of(st.none(), st.integers(1, 50)))
    high = m if m is not None else 50
    cells = data.draw(st.lists(
        st.integers(-1, high - 1), min_size=rows * cols, max_size=rows * cols))
    w = DegreeMatrix(np.array(cells).reshape(rows, cols), modulus=m)
    assert parse_degree_matrix(emit_degree_matrix(w)) == w


# -- sparse parity check -------------------------------------------------------

def test_sparse_parity_check_validation():
    def csr(indptr, indices, n_cols=4):
        return SparseParityCheck(n_cols, np.array(indptr), np.array(indices))

    h = csr([0, 2, 2, 3], [0, 3, 1])
    assert (h.n_rows, h.n_cols) == (3, 4)
    assert h.to_dense().tolist() == [[1, 0, 0, 1], [0, 0, 0, 0], [0, 1, 0, 0]]
    assert h.indptr.dtype == h.indices.dtype == np.int64
    assert not h.indptr.flags.writeable and not h.indices.flags.writeable
    assert csr([0, 1, 2], [3, 3]) == csr([0, 1, 2], [3, 3])  # equal across rows is fine
    bad = [
        ([0, 2], [0, 4]),        # column index past n_cols
        ([0, 2], [-1, 2]),       # negative column index
        ([0, 2], [1, 1]),        # repeated index within a row
        ([0, 2], [2, 1]),        # decreasing index within a row
        ([1, 2], [0, 1]),        # indptr does not start at 0
        ([0, 2, 1, 2], [0, 1]),  # indptr decreases
        ([0, 1], [0, 1]),        # indptr ends before indices.size
        ([0, 3], [0, 1]),        # indptr ends past indices.size
        ([], []),                # no row offsets at all
    ]
    for indptr, indices in bad:
        with pytest.raises(ValueError):
            csr(indptr, indices)


def test_constructors_leave_caller_arrays_writeable():
    # each type once froze the caller's own array in place
    indptr, indices = np.array([0, 2, 3]), np.array([0, 3, 1])
    entries, bits = np.array([[1, 0, 1], [0, 1, 1]]), np.array([[1, 0, 1], [0, 1, 1]], np.uint8)
    h = SparseParityCheck(4, indptr, indices)
    views = SparseParityCheck(4, indptr[:], indices[:])
    w, b = DegreeMatrix(entries), BaseMatrix(bits)
    for arr in (indptr, indices, entries, bits):
        assert arr.flags.writeable
    indptr[1], indices[0], entries[0, 0], bits[0, 0] = 1, 2, 5, 0
    assert h.to_dense().tolist() == views.to_dense().tolist() == [
        [1, 0, 0, 1], [0, 1, 0, 0]]
    assert w.entries.tolist() == b.entries.tolist() == [[1, 0, 1], [0, 1, 1]]
    for arr in (h.indptr, h.indices, w.entries, b.entries):
        assert not arr.flags.writeable
    # an array that is already read-only is shared, not copied
    assert SparseParityCheck(h.n_cols, h.indptr, h.indices).indices is h.indices
    assert DegreeMatrix(w.entries).entries is w.entries


def test_read_only_view_of_writeable_array_is_copied():
    # a read-only view was once shared as it was, so a write to the array
    # under it changed a matrix after validation
    ix, entries = np.array([0, 1]), np.array([[1, 0, 1], [0, 1, 1]])
    views = []
    for arr in (ix, entries):
        views.append(arr.view())
        views[-1].setflags(write=False)
    h = SparseParityCheck(3, np.array([0, 1, 2]), views[0])
    w = DegreeMatrix(views[1])
    ix[1], entries[0, 0] = 2, 5
    assert h.indices.tolist() == [0, 1]
    assert w.entries.tolist() == [[1, 0, 1], [0, 1, 1]]
    # what the constructors adopt is frozen down its base chain and shared
    entry = catalog.BY_NAME["g06_k4"]
    lift = lift_tailbiting(entry.degree_matrix(), entry.m)
    dense = SparseParityCheck.from_dense(np.eye(3, dtype=np.uint8)[::-1])
    for m in (lift, lift.transpose(), dense):
        again = SparseParityCheck(m.n_cols, m.indptr, m.indices)
        assert again.indptr is m.indptr and again.indices is m.indices


@pytest.mark.parametrize("indptr, indices, ok", [
    ([0, 0, 2, 4], [2, 3, 0, 1], True),                # empty first row
    ([0, 2, 2, 4], [2, 3, 0, 1], True),                # empty middle row
    ([0, 2, 4, 4], [2, 3, 0, 1], True),                # empty last row
    ([0, 0, 0, 2, 2, 2, 3, 3], [2, 3, 0], True),       # runs of empty rows everywhere
    ([0, 1, 2, 3], [3, 2, 0], True),                   # every row starts below the last
    ([0, 0, 2], [1, 1], False),                        # equal pair after an empty row
    ([0, 0, 2], [3, 2], False),                        # falling pair after an empty row
    ([0, 2, 2, 4], [0, 1, 2, 2], False),               # equal pair after an empty middle row
    ([0, 2, 2, 4], [2, 3, 1, 0], False),               # falling pair after an empty middle row
    ([0, 2, 4, 4], [0, 1, 3, 2], False),               # falling pair before an empty last row
    ([0, 3, 3], [0, 2, 2], False),                     # equal pair ending the ones
])
def test_row_order_check_boundaries(indptr, indices, ok):
    # each row's first one is exempt from the comparison with the one before it
    if ok:
        assert SparseParityCheck(4, indptr, indices).indices.tolist() == indices
    else:
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseParityCheck(4, indptr, indices)


def test_sparse_parity_check_rejects_int64_key_overflow():
    # 3 x 2**62: the row-major keys wrap twice and would still read increasing
    with pytest.raises(ValueError):
        SparseParityCheck(2**62, [0, 1, 2, 3], [0, 2**61, 2**62 - 1])
    with pytest.raises(ValueError):
        SparseParityCheck(2**62, [0, 0, 0], [])  # 2 x 2**62 is exactly 2**63
    assert SparseParityCheck(2**62, [0, 1], [2**62 - 1]).n_rows == 1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_transpose_matches_dense_random(data):
    # zero rows or columns, empty rows and columns, and no ones at all included
    rows, cols = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 9))
    density = data.draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dense = (rng.random((rows, cols)) < density).astype(np.uint8)
    h = SparseParityCheck.from_dense(dense)
    t = h.transpose()
    assert np.array_equal(t.to_dense(), dense.T)
    assert t == SparseParityCheck.from_dense(dense.T) and t.transpose() == h


def test_csr_from_pairs_decodes_across_blocks(monkeypatch):
    # blocks of 1-5 sorted keys split rows at every offset, and empty rows
    # lie inside, before and after a block
    rng = np.random.default_rng(37)
    for block in (1, 2, 3, 5):
        monkeypatch.setattr(matrices, "_DECODE_BLOCK", block)
        for _ in range(20):
            dense = (rng.random((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
                     < rng.uniform(0.1, 0.9)).astype(np.uint8)
            rows, cols = np.nonzero(dense)
            order = rng.permutation(rows.size)
            indptr, indices = matrices.csr_from_pairs(*dense.shape, rows[order], cols[order])
            assert SparseParityCheck(dense.shape[1], indptr, indices) == \
                SparseParityCheck.from_dense(dense)


# -- alist --------------------------------------------------------------------

def test_alist_identity():
    h = SparseParityCheck.from_dense(np.eye(2, dtype=np.uint8))
    text = emit_alist(h)
    assert text == "2 2\n1 1\n1 1\n1 1\n1\n2\n1\n2\n"
    assert parse_alist(text) == h


def test_alist_toy_code_degrees(toy_degrees):
    h = lift_tailbiting(toy_degrees, 2)
    text = emit_alist(h)
    lines = text.splitlines()
    assert lines[0] == "8 6"
    assert lines[1] == "3 4"
    assert lines[2] == "3 3 3 3 3 3 3 3"
    assert lines[3] == "4 4 4 4 4 4"
    assert parse_alist(text) == SparseParityCheck.from_dense(TOY_TB)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_alist_round_trip_random(data):
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 8))
    bits = data.draw(st.lists(st.booleans(), min_size=rows * cols,
                              max_size=rows * cols))
    dense = np.array(bits, dtype=np.uint8).reshape(rows, cols)
    h = SparseParityCheck.from_dense(dense)
    assert parse_alist(emit_alist(h)) == h


_ALIST = "3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n"  # [[1 1 0], [0 1 1]]


@pytest.mark.parametrize("old,new,message", [
    ("3 2\n", "3 x\n", "bad alist header"),
    ("1 2 1\n", "1 2\n", "weight lines do not match dimensions"),
    ("1 2\n2 3\n", "1 2\n", "body does not match dimensions"),
    ("2 3\n", "2 3\n1\n", "body does not match dimensions"),
    ("1 2 1\n", "1 2 2\n", "column 3 weight mismatch"),
    ("1 2\n2 3\n", "1 2\n1 3\n", "row 2 list inconsistent"),
], ids=["header", "weight_line", "short_body", "long_body", "column_weight", "row_list"])
def test_parse_alist_names_the_fault(old, new, message):
    assert parse_alist(_ALIST) == SparseParityCheck.from_dense(
        np.array([[1, 1, 0], [0, 1, 1]]))
    assert old in _ALIST
    with pytest.raises(FormatError, match=message):
        parse_alist(_ALIST.replace(old, new))


def test_parse_alist_rejects_garbage():
    with pytest.raises(FormatError):
        parse_alist("2 2\n1 1\n")
    with pytest.raises(FormatError):
        parse_alist("2 2\n1 1\n1 1\n1 1\n3\n2\n1\n2\n")
    with pytest.raises(FormatError):
        parse_alist("2 1\n1 2\n1 1\n2\n1\nx\n1 2\n")  # bad body token
    with pytest.raises(FormatError):
        parse_alist(b"2 1\n1 2\n1 1\n2\n1\n\xe9\n1 2\n")  # not ASCII
    with pytest.raises(FormatError):
        parse_alist("1 2\n2 2\n2\n2 0\n1 1\n1 1\n\n")  # row 1 twice in column 1


# -- GF(2) rank ---------------------------------------------------------------

def test_rank_toy_tailbiting(toy_degrees):
    # rows 1+2+4+5 and 1+3+4+6 of the printed matrix each sum to zero over
    # GF(2), so the 6x8 matrix has rank 4 and the code dimension is 4
    h = lift_tailbiting(toy_degrees, 2)
    dense = h.to_dense()
    assert not (dense[0] ^ dense[1] ^ dense[3] ^ dense[4]).any()
    assert not (dense[0] ^ dense[2] ^ dense[3] ^ dense[5]).any()
    assert gf2_rank(h) == 4
    assert h.n_cols - gf2_rank(h) == 4


def test_rank_zero_matrix():
    h = SparseParityCheck(5, np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert h.n_rows == 3
    assert gf2_rank(h) == 0


def test_rank_girth6_code():
    entry = catalog.BY_NAME["g06_k4"]
    h = lift_tailbiting(entry.degree_matrix(), entry.m)
    assert gf2_rank(h) == 13
    assert h.n_cols - gf2_rank(h) == 7


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rank_invariant_under_permutation(seed):
    rng = np.random.default_rng(seed)
    dense = rng.integers(0, 2, size=(6, 9)).astype(np.uint8)
    h = SparseParityCheck.from_dense(dense)
    permuted = dense[rng.permutation(6)][:, rng.permutation(9)]
    assert gf2_rank(h) == gf2_rank(SparseParityCheck.from_dense(permuted))
