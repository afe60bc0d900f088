"""Bit-packed GF(2) linear algebra on numpy uint64 words.

Rows are stored as ``(n_rows, n_words)`` uint64 arrays with bit ``c`` of a
row living in word ``c // 64`` at position ``c % 64``.  Elimination XORs
whole word-rows at once, so rank and nullspace stay usable for matrices
with tens of thousands of columns.

:func:`qc_rank` is the second rank engine, for quasi-cyclic matrices only:
it works on the degree matrix over GF(2)[x] and never touches the n columns.
"""

from __future__ import annotations

import numpy as np


def pack_rows(dense: np.ndarray) -> np.ndarray:
    """Pack a dense 0/1 matrix into uint64 words, one packed row per row."""
    dense = np.asarray(dense, dtype=np.uint8) & 1
    n_rows, n_cols = dense.shape
    n_words = max(1, (n_cols + 63) // 64)
    padded = np.zeros((n_rows, n_words * 64), dtype=np.uint8)
    padded[:, :n_cols] = dense
    # numpy packbits is big-endian within bytes; ask for little to keep
    # bit c at (word c//64, bit c%64).
    packed_bytes = np.packbits(padded, axis=1, bitorder="little")
    return packed_bytes.view(np.uint64).reshape(n_rows, n_words)


def unpack_rows(packed: np.ndarray, n_cols: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`."""
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :n_cols].astype(np.uint8)


def _bit(packed: np.ndarray, rows: slice | np.ndarray, col: int) -> np.ndarray:
    w, b = divmod(col, 64)
    return (packed[rows, w] >> np.uint64(b)) & np.uint64(1)


def row_echelon(packed: np.ndarray, n_cols: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form in place-sized copy; returns (rref, pivot cols)."""
    work = packed.astype(np.uint64, copy=True)
    n_rows = work.shape[0]
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        if r >= n_rows:
            break
        below = np.nonzero(_bit(work, slice(r, n_rows), col))[0]
        if below.size == 0:
            continue
        p = r + int(below[0])
        if p != r:
            work[[r, p]] = work[[p, r]]
        hits = np.nonzero(_bit(work, slice(0, n_rows), col))[0]
        hits = hits[hits != r]
        if hits.size:
            work[hits] ^= work[r]
        pivots.append(col)
        r += 1
    return work, pivots


def rank(packed: np.ndarray, n_cols: int) -> int:
    """GF(2) rank of a packed matrix."""
    _, pivots = row_echelon(packed, n_cols)
    return len(pivots)


def nullspace_basis(packed: np.ndarray, n_cols: int,
                    max_dim: int | None = None) -> np.ndarray:
    """Basis of the right nullspace, returned dense with shape (k, n_cols).

    Raises ValueError when k exceeds ``max_dim``, before the basis is built."""
    rref, pivots = row_echelon(packed, n_cols)
    if max_dim is not None and n_cols - len(pivots) > max_dim:
        raise ValueError(f"nullspace dimension {n_cols - len(pivots)} exceeds {max_dim}")
    free_cols = np.setdiff1d(np.arange(n_cols), pivots)
    basis = np.zeros((free_cols.size, n_cols), dtype=np.uint8)
    basis[np.arange(free_cols.size), free_cols] = 1
    basis[:, pivots] = unpack_rows(rref[:len(pivots)], n_cols)[:, free_cols].T
    return basis


# ---------------------------------------------------------------------------
# Quasi-cyclic rank over GF(2)[x]/(x^M - 1).  Polynomials are Python ints:
# bit i is the coefficient of x^i.
# ---------------------------------------------------------------------------

def _clmul(a: int, b: int) -> int:
    """Carry-less product, one shifted copy per term of the sparser factor."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int, int, int]:
    """Extended Euclid: (g, sa, ta, sb, tb) with sa*a + ta*b = g = gcd(a, b)
    and sb*a + tb*b = 0.  The cofactor matrix has determinant 1, and
    sb = b / g, tb = a / g."""
    sa, ta, sb, tb = 1, 0, 0, 1
    while b:
        db = b.bit_length()
        while (sh := a.bit_length() - db) >= 0:
            a ^= b << sh
            sa ^= sb << sh
            ta ^= tb << sh
        a, b, sa, sb, ta, tb = b, a, sb, sa, tb, ta
    return a, sa, ta, sb, tb


def qc_rank(entries: np.ndarray, m: int) -> int:
    """GF(2) rank of the quasi-cyclic matrix whose block (i, j) is the M x M
    circulant of x^entries[i, j]; a negative entry is a zero block.

    The column space is the module spanned over R = GF(2)[x]/(x^M - 1) by
    the columns of the cb x c polynomial matrix A.  Column moves that are
    invertible over R bring [A | (x^M - 1) I_cb] to lower-triangular form one
    row at a time; with pivots d_i = gcd(entry, x^M - 1) the rank is
    cb*M - sum(deg d_i) (Lally & Fitzpatrick, Discrete Appl. Math. 2001).
    Rows are taken in Markowitz order, monomial pivots (units of R) first,
    which is a row permutation and so leaves the rank alone.  A pivot that is
    not a unit leaves its annihilator ((x^M - 1)/d_i) * column behind, which
    covers even M, where x^M - 1 has repeated factors.
    """
    entries = np.asarray(entries, dtype=np.int64)
    if entries.ndim != 2:
        raise ValueError("degree matrix must be two-dimensional")
    if m < 1:
        raise ValueError("circulant size M must be positive")
    mask = (1 << m) - 1
    xm1 = (1 << m) | 1
    cols = [[1 << (w % m) if w >= 0 else 0 for w in col] for col in entries.T.tolist()]
    rows = list(range(entries.shape[0]))
    deficit = 0
    while rows:
        cols = [col for col in cols if any(col[k] for k in rows)]
        best = None
        for i in rows:
            hits = [col for col in cols if col[i]]
            for col in hits:
                terms = col[i].bit_count()
                fill = (len(hits) - 1) * (sum(1 for k in rows if col[k]) - 1)
                key = (terms > 1, fill, terms)
                if best is None or key < best[0]:
                    best = (key, i, col)
            if not hits:
                best = (None, i, None)
                break
        _, i, piv = best
        rows.remove(i)
        if piv is None:
            deficit += m  # zero row: its pivot is x^M - 1 itself
            continue
        others = [col for col in cols if col[i] and col is not piv]
        if piv[i].bit_count() == 1:
            inverse_shift = m - (piv[i].bit_length() - 1)
            for col in others:
                q = col[i] << inverse_shift
                q = (q & mask) ^ (q >> m)
                for k in rows:
                    if piv[k]:
                        p = _clmul(q, piv[k])
                        col[k] ^= (p & mask) ^ (p >> m)
            cols = [col for col in cols if col is not piv]
            continue
        for col in others:
            g, sa, ta, sb, tb = _xgcd(piv[i], col[i])
            for k in rows:
                x, y = piv[k], col[k]
                p = _clmul(sa, x) ^ _clmul(ta, y)
                q = _clmul(sb, x) ^ _clmul(tb, y)
                piv[k] = (p & mask) ^ (p >> m)
                col[k] = (q & mask) ^ (q >> m)
            piv[i] = g
        d, _, _, annihilator, _ = _xgcd(piv[i], xm1)
        if d == 1:
            cols = [col for col in cols if col is not piv]
            continue
        deficit += d.bit_length() - 1
        for k in rows:
            p = _clmul(annihilator, piv[k])
            piv[k] = (p & mask) ^ (p >> m)
    return entries.shape[0] * m - deficit
