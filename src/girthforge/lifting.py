"""Lift a degree matrix to tailbiting and circulant parity-check layouts.

Tailbiting layout: block row r, block column t holds the base pattern of all
edges with (r - t) mod M equal to their degree; equivalently each edge (i, j)
with degree w puts a one at (((t + w) mod M) * (c-b) + i, t*c + j) for every
block column t.  Circulant layout groups by base position instead: block
(i, j) is the M x M circulant with ones at (s, (s - w) mod M).  The two are
column/row permutations of each other.  Each lift is built in CSR form by one
sort of the int64 keys ``row * Mc + col``, which fit while M(c-b) * Mc < 2**63.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf2
from .matrices import (
    CIRCULANT,
    NO_EDGE,
    TAILBITING,
    DegreeMatrix,
    QCBlock,
    SparseParityCheck,
    csr_from_pairs,
)


def _lifted_rows(w: DegreeMatrix, m: int, layout: str) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of the lift of ``w`` in ``layout``."""
    if m <= w.max_degree:
        raise ValueError(f"tailbiting length {m} must exceed max degree {w.max_degree}")
    cb, c = w.n_rows, w.n_cols
    ei, ej = np.nonzero(w.entries != NO_EDGE)
    ew, s = w.entries[ei, ej], np.arange(m)[:, None]  # ones as (s, edge) grids
    if layout == TAILBITING:  # s is the block column
        row_idx = ((s + ew) % m) * cb + ei
        col_idx = s * c + ej
    else:  # s is the row within each circulant
        row_idx = ei * m + s
        col_idx = ej * m + (s - ew) % m
    return csr_from_pairs(m * cb, m * c, row_idx, col_idx)


def lift_tailbiting(w: DegreeMatrix, m: int) -> SparseParityCheck:
    """Tailbiting parity-check matrix of size M(c-b) x Mc."""
    return SparseParityCheck(m * w.n_cols, *_lifted_rows(w, m, TAILBITING),
                             TAILBITING, QCBlock(m, w.n_cols, w.n_rows))


def lift_circulant(w: DegreeMatrix, m: int) -> SparseParityCheck:
    """Circulant-block parity-check matrix, equivalent to the tailbiting one."""
    return SparseParityCheck(m * w.n_cols, *_lifted_rows(w, m, CIRCULANT),
                             CIRCULANT, QCBlock(m, w.n_cols, w.n_rows))


def reorder_to_circulant(h_tb: SparseParityCheck, c: int, cb: int, m: int,
                         ) -> tuple[SparseParityCheck, np.ndarray, np.ndarray]:
    """Permute a tailbiting matrix into circulant layout.

    Returns (matrix, column permutation, row permutation) where position p of
    a permutation holds the source index: column p of the result is column
    ``col_perm[p]`` of the input.  Columns are gathered as 0, c, 2c, ... then
    1, c+1, ... and rows analogously with stride c-b.  Raises ``ValueError``
    unless the input is in tailbiting layout with matching block metadata
    (or none): the result is labelled circulant, which is only true then.
    """
    if h_tb.layout != TAILBITING:
        raise ValueError(f"expected a tailbiting layout, got {h_tb.layout!r}")
    if h_tb.block is not None and h_tb.block != QCBlock(m, c, cb):
        raise ValueError("block metadata does not match (c, c-b, M)")
    if h_tb.n_rows != m * cb or h_tb.n_cols != m * c:
        raise ValueError("dimensions do not match (c, c-b, M)")
    col_perm = (np.arange(m) * c + np.arange(c)[:, None]).ravel()
    row_perm = (np.arange(m) * cb + np.arange(cb)[:, None]).ravel()
    col_rank = (np.arange(c) * m + np.arange(m)[:, None]).ravel()  # inverse of col_perm
    row_rank = (np.arange(cb) * m + np.arange(m)[:, None]).ravel()  # inverse of row_perm
    rows = np.repeat(row_rank, np.diff(h_tb.indptr))
    csr = csr_from_pairs(h_tb.n_rows, h_tb.n_cols, rows, col_rank[h_tb.indices])
    return SparseParityCheck(h_tb.n_cols, *csr, CIRCULANT, QCBlock(m, c, cb)), col_perm, row_perm


def degree_matrix_of_lift(h: SparseParityCheck) -> tuple[DegreeMatrix, int]:
    """Recover (degree matrix, M) from a tailbiting or circulant lift.

    Reads the degrees off the first row of every block row, then checks that
    every stored one lies where the lift of those degrees has a one and that
    there are M ones per edge.  The ones of a CSR matrix are distinct, so
    then the matrix is that lift.  Raises ``ValueError`` when the block
    metadata does not describe the matrix.
    """
    if h.layout not in (TAILBITING, CIRCULANT) or h.block is None:
        raise ValueError("expected a tailbiting or circulant lift with block metadata")
    m, c, cb = h.block.m, h.block.c, h.block.cb
    if m < 1 or h.n_rows != m * cb or h.n_cols != m * c:
        raise ValueError("block metadata does not match the matrix shape")
    entries = np.full((cb, c), NO_EDGE, dtype=np.int64)
    for i in range(cb):
        # the first row of block row i holds, per base column j, one entry at offset (-w) mod M
        # (a block with two circulants there fails the check of every one below)
        if h.layout == TAILBITING:
            t, j = np.divmod(h.indices[h.indptr[i]:h.indptr[i + 1]], c)
        else:
            j, t = np.divmod(h.indices[h.indptr[i * m]:h.indptr[i * m + 1]], m)
        entries[i, j] = -t % m
    # a one at offset a in its block row and offset b in its block column
    # lies on the lift iff b + w - a is 0 or M; the ones are split by a
    # floor division and a product, which is faster than np.divmod
    rows, cols = np.arange(h.n_rows), h.indices
    if h.layout == TAILBITING:  # row ((t + w) % M) * cb + i, column t * c + j
        (row_at, i), col_at = np.divmod(rows, cb), cols // c
        j = cols - col_at * c
    else:  # row i * M + s, column j * M + (s - w) % M
        (i, row_at), j = np.divmod(rows, m), cols // m
        col_at = cols - j * m
    per_row = np.diff(h.indptr)
    deg = entries.ravel().take(np.repeat(i * c, per_row) + j)
    gap = col_at + deg - np.repeat(row_at, per_row)
    lifted = ((gap == 0) | (gap == m)) & (deg != NO_EDGE)
    if h.indices.size != m * np.count_nonzero(entries != NO_EDGE) or not lifted.all():
        raise ValueError("matrix is not the lift of a single-circulant degree matrix")
    return DegreeMatrix(entries, modulus=m), m


@dataclass(frozen=True)
class TailbitingCode:
    """A degree matrix wrapped to tailbiting length M."""

    degree: DegreeMatrix
    m: int

    def __post_init__(self) -> None:
        if self.m <= self.degree.max_degree:
            raise ValueError("M must exceed the maximum degree")

    @property
    def n(self) -> int:
        return self.m * self.degree.n_cols

    @cached_property
    def h_tb(self) -> SparseParityCheck:
        return lift_tailbiting(self.degree, self.m)

    @cached_property
    def k(self) -> int:
        return self.n - gf2.qc_rank(self.degree.entries, self.m)
