"""Bit-packed GF(2) linear algebra on numpy uint64 words.

Rows are stored as ``(n_rows, n_words)`` uint64 arrays with bit ``c`` of a
row living in word ``c // 64`` at position ``c % 64``.  Elimination XORs
whole word-rows at once, so rank and nullspace stay usable for matrices
with tens of thousands of columns.
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


def nullspace_basis(packed: np.ndarray, n_cols: int) -> np.ndarray:
    """Basis of the right nullspace, returned dense with shape (k, n_cols)."""
    rref, pivots = row_echelon(packed, n_cols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    dense = unpack_rows(rref, n_cols)
    basis = np.zeros((len(free_cols), n_cols), dtype=np.uint8)
    for i, fc in enumerate(free_cols):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            if dense[r, fc]:
                basis[i, pc] = 1
    return basis
