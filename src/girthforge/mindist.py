"""Exact minimum distance of lifted codes.

The branch-and-bound engine grows one syndrome tree per base column: the
root syndrome is that column, every branch XORs in one further column, and a
node dies when some M-row block of its partial syndrome weighs more than the
remaining column budget (each column clears at most one bit per block).
A syndrome is one Python int over all cb*M check bits, block i at bits
i*M .. i*M+M-1, so a branch is one XOR and the branching bit is the lowest
set bit.  Quasi-cyclicity makes the block-offset-zero columns a complete set
of roots.  The independent oracle for dimensions up to 28 enumerates all
2^k codewords from the systematic nullspace basis, in numpy chunks of parity
words.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import gf2
from .matrices import NO_EDGE, DegreeMatrix, SparseParityCheck
from .lifting import TailbitingCode, degree_matrix_of_lift

# elements per broadcast block of the enumeration; a block's XOR temporary
# is 512 KB of uint64, so wider blocks only raise peak memory
_ENUM_BLOCK = 1 << 16


@dataclass(frozen=True)
class Distance:
    """``exact`` means value is d_min; otherwise d_min >= value is certified."""

    value: int
    exact: bool

    def __str__(self) -> str:
        return str(self.value) if self.exact else f">= {self.value}"


def _column_tables(w: DegreeMatrix, m: int):
    """Per-column syndromes, each one int over all cb*M check bits (block i
    at bits i*M .. i*M+M-1), and for every check bit the list of columns
    covering it.  Columns are indexed t*c + j over block column t and base
    column j."""
    cb, c = w.n_rows, w.n_cols
    col_synd = [0] * (m * c)
    hitters: list[list[int]] = [[] for _ in range(cb * m)]
    edges_by_col = [[(i, int(w.entries[i, j])) for i in range(cb)
                     if w.entries[i, j] != NO_EDGE] for j in range(c)]
    for t in range(m):
        for j in range(c):
            cid = t * c + j
            for i, deg in edges_by_col[j]:
                bit = i * m + (t + deg) % m
                col_synd[cid] |= 1 << bit
                hitters[bit].append(cid)
    return col_synd, hitters


def _resolve_code(code) -> tuple[DegreeMatrix, int]:
    if isinstance(code, TailbitingCode):
        return code.degree, code.m
    if isinstance(code, SparseParityCheck):
        return degree_matrix_of_lift(code)
    w, m = code
    return w, m


def _branch_and_bound(code, t: int) -> tuple[int, tuple[int, ...] | None]:
    """Smallest zero-sum column subset below t columns, with its support
    (tailbiting column indices), or (t, None) when none exists."""
    if t < 2:
        raise ValueError("distance cap must be at least 2")
    w, m = _resolve_code(code)
    cb, c = w.n_rows, w.n_cols
    col_synd, hitters = _column_tables(w, m)
    # the per-block rule reads block i of a syndrome as s & block_masks[i]
    block_masks = [((1 << m) - 1) << (i * m) for i in range(cb)]
    best = t
    support: tuple[int, ...] | None = None
    limit = sys.getrecursionlimit()
    if t + 16 > limit:
        sys.setrecursionlimit(t + 64)

    def extend(s: int, used: set[int], count: int, root: int) -> None:
        nonlocal best, support
        budget = best - 1 - count
        if budget < 0:
            return
        if not s:
            best, support = count, tuple(sorted(used))
            return
        # no block can outweigh budget while the whole syndrome does not
        if s.bit_count() > budget:
            for block in block_masks:
                if (s & block).bit_count() > budget:
                    return
        if budget == 0:
            return
        for cid in hitters[(s & -s).bit_length() - 1]:
            if cid <= root or cid in used:
                continue
            used.add(cid)
            extend(s ^ col_synd[cid], used, count + 1, root)
            used.discard(cid)

    try:
        for root in range(c):
            extend(col_synd[root], {root}, 1, root)
    finally:
        sys.setrecursionlimit(limit)
    return best, support


def min_distance_md(code: TailbitingCode | SparseParityCheck | tuple[DegreeMatrix, int],
                    t: int) -> Distance:
    """Branch-and-bound distance: exact d_min when d_min < t, else a
    certificate that d_min >= t."""
    best, _ = _branch_and_bound(code, t)
    return Distance(best, True) if best < t else Distance(t, False)


def min_weight_codeword(code, t: int) -> tuple[Distance, tuple[int, ...] | None]:
    """Like :func:`min_distance_md` but also returns the witness support as
    column indices of the tailbiting layout (None for a lower bound)."""
    best, support = _branch_and_bound(code, t)
    return (Distance(best, True), support) if best < t else (Distance(t, False), None)


def min_distance_bruteforce(h: SparseParityCheck, max_dim: int = 28) -> int:
    """Exact d_min by enumerating all 2^k - 1 nonzero codewords.

    The nullspace basis is systematic: row i is the identity on its free
    column (its last set bit), so a codeword weighs wt(message) plus the
    weight of its n-k parity bits.  Each half of the basis becomes a
    word-major XOR table of parity words, and blocks of back rows meet the
    whole front table by broadcasting, about ``_ENUM_BLOCK`` elements at a
    time.  A dimension above ``max_dim`` raises ValueError before the basis
    is built."""
    basis = gf2.nullspace_basis(h.packed(), h.n_cols, max_dim=max_dim)
    k = basis.shape[0]
    if k == 0:
        raise ValueError("code has no nonzero codewords")
    parity = np.ones(h.n_cols, dtype=bool)
    parity[h.n_cols - 1 - np.argmax(basis[:, ::-1], axis=1)] = False
    words = gf2.pack_rows(basis[:, parity]).T
    front, back = _xor_table(words[:, :k // 2 + 1]), _xor_table(words[:, k // 2 + 1:])
    dtype = np.min_scalar_type(h.n_cols)
    front_wt = np.bitwise_count(np.arange(front.shape[1])).astype(dtype)
    back_wt = np.bitwise_count(np.arange(back.shape[1])).astype(dtype)
    step = max(1, _ENUM_BLOCK // front.shape[1])
    best = h.n_cols
    for b0 in range(0, back.shape[1], step):
        rows = slice(b0, b0 + step)
        weights = back_wt[rows, None] + front_wt
        for fw, bw in zip(front, back):
            weights += np.bitwise_count(bw[rows, None] ^ fw)
        if b0 == 0:
            weights[0, 0] = best  # the all-zero codeword; d_min <= n anyway
        best = min(best, int(weights.min()))
    return best


def _xor_table(columns: np.ndarray) -> np.ndarray:
    """All 2^j XOR combinations of the j columns of a (words, j) array, as a
    (words, 2^j) table whose column index has bit i set when column i is in."""
    table = np.zeros((columns.shape[0], 1), dtype=np.uint64)
    for i in range(columns.shape[1]):
        table = np.hstack([table, table ^ columns[:, i:i + 1]])
    return table

