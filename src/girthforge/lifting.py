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

Both lifts, and the circulant matrix :func:`reorder_to_circulant` makes of
a tailbiting lift, carry the degree matrix (with modulus M) and layout they
were built from as ``SparseParityCheck.lift``, which rank, the orbit-start
BFS and branch and bound read.  The lift is the code: its length is
``h.n_cols`` and its dimension ``h.n_cols - gf2_rank(h)``.  A lift first
builds ``DegreeMatrix(W.entries, modulus=M)``, whose constructor rejects an
M that is not an integer, is below 1 or does not exceed every degree.
"""

from __future__ import annotations

import numpy as np

from .matrices import (
    CIRCULANT,
    NO_EDGE,
    TAILBITING,
    DegreeMatrix,
    SparseParityCheck,
    _adopt,
)


def _lifted_rows(w: DegreeMatrix, layout: str) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of the lift of ``w`` to its modulus in ``layout``."""
    m, c = w.modulus, w.n_cols
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


def _lift(w: DegreeMatrix, m: int, layout: str) -> SparseParityCheck:
    w = DegreeMatrix(w.entries, modulus=m)  # checks that M is an integer >= 1 above every degree
    return _adopt(w.modulus * w.n_cols, *_lifted_rows(w, layout), (w, layout))


def lift_tailbiting(w: DegreeMatrix, m: int) -> SparseParityCheck:
    """Tailbiting parity-check matrix of size M(c-b) x Mc."""
    return _lift(w, m, TAILBITING)


def lift_circulant(w: DegreeMatrix, m: int) -> SparseParityCheck:
    """Circulant-block parity-check matrix, equivalent to the tailbiting one."""
    return _lift(w, m, CIRCULANT)


def reorder_to_circulant(
        h_tb: SparseParityCheck) -> tuple[SparseParityCheck, np.ndarray, np.ndarray]:
    """The circulant lift of a tailbiting lift's degree matrix, with the
    permutations that take the tailbiting layout to it.

    Returns (matrix, column permutation, row permutation) where position p of
    a permutation holds the source index: column p of the result is column
    ``col_perm[p]`` of the input.  Columns are gathered as 0, c, 2c, ... then
    1, c+1, ... and rows analogously with stride c-b, with c, c-b and M read
    off the degree matrix the lift carries.  Raises ``ValueError`` unless the
    input is a tailbiting lift.
    """
    if h_tb.lift is None or h_tb.lift[1] != TAILBITING:
        raise ValueError("expected a tailbiting lift")
    w, _ = h_tb.lift
    c, cb, m = w.n_cols, w.n_rows, w.modulus
    col_perm = (np.arange(m) * c + np.arange(c)[:, None]).ravel()
    row_perm = (np.arange(m) * cb + np.arange(cb)[:, None]).ravel()
    return _lift(w, m, CIRCULANT), col_perm, row_perm
