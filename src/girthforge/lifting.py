"""Lift a degree matrix to tailbiting and circulant parity-check layouts.

Tailbiting layout: block row r, block column t holds the base pattern of all
edges with (r - t) mod M equal to their degree; equivalently each edge (i, j)
with degree w puts a one at (((t + w) mod M) * (c-b) + i, t*c + j) for every
block column t.  Circulant layout groups by base position instead: block
(i, j) is the M x M circulant with ones at (s, (s - w) mod M).  The two are
column/row permutations of each other.

Each lift is written in CSR form with every row's columns already in
increasing order, so no lift sorts all its ones.  Base row i of weight k
lifts to M rows of k ones each.  Tailbiting row a*(c-b) + i holds the
columns ((a - w) mod M)*c + j of the edges (i, j), so it is a*c plus the
offset (-w)*c + j, or (M - w)*c + j where a - w wraps.  Cut [0, M) at 0, M
and the distinct degrees of base row i: inside one stretch [lo, hi) no
degree lies in (lo, hi), so w > a exactly when w > lo and the offsets are
the same for every row of the stretch.  One sort of k offsets per stretch,
at most c + 1 stretches per base row, orders all M rows.  Circulant row
i*M + s holds the columns j*M + (s - w) mod M, which rise with j already.
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
    c = w.n_cols
    weights = np.count_nonzero(w.entries != NO_EDGE, axis=1)
    slots = np.concatenate(([0], np.cumsum(weights))).tolist()  # row i: slots[i] to slots[i+1]
    indices = np.empty(m * slots[-1], dtype=np.int64)
    s = np.arange(m)[:, None]
    if layout == TAILBITING:  # block row a is row a of this grid
        grid, row_c = indices.reshape(m, slots[-1]), s * c
        indptr = np.concatenate(([0], np.cumsum(np.tile(weights, m))))
    else:  # base row i owns the M rows from i*M on
        indptr = np.concatenate(([0], np.cumsum(np.repeat(weights, m))))
    for i, (first, last) in enumerate(zip(slots[:-1], slots[1:])):
        j = np.flatnonzero(w.entries[i] != NO_EDGE)
        deg = w.entries[i, j]
        if layout == TAILBITING:
            cuts = np.unique(np.concatenate(([0, m], deg))).tolist()
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                offsets = np.sort(np.where(deg > lo, m - deg, -deg) * c + j)
                np.add(row_c[lo:hi], offsets, out=grid[lo:hi, first:last])
        else:
            np.add(j * m, (s - deg) % m, out=indices[m * first:m * last].reshape(m, last - first))
    return indptr, indices


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
