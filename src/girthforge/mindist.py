"""Exact minimum distance of lifted codes.

The branch-and-bound engine grows one syndrome tree per base column: the
root syndrome is that column, every branch XORs in one further column, and a
node dies when some M-row block of its partial syndrome weighs more than the
remaining column budget (each column clears at most one bit per block).
Quasi-cyclicity makes the block-offset-zero columns a complete set of roots.
A meet-in-the-middle codeword enumeration serves as the independent oracle
for dimensions up to 28.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import gf2
from .matrices import NO_EDGE, DegreeMatrix, SparseParityCheck
from .lifting import TailbitingCode, degree_matrix_of_lift


@dataclass(frozen=True)
class Distance:
    """``exact`` means value is d_min; otherwise d_min >= value is certified."""

    value: int
    exact: bool

    def __str__(self) -> str:
        return str(self.value) if self.exact else f">= {self.value}"


def _column_tables(w: DegreeMatrix, m: int):
    """Per-column syndromes (one bitmask int per row block) and, for every
    (block, bit), the list of columns covering it.  Columns are indexed
    t*c + j over block column t and base column j."""
    cb, c = w.n_rows, w.n_cols
    n = m * c
    col_synd = [None] * n
    hitters: list[list[int]] = [[] for _ in range(cb * m)]
    edges_by_col: list[list[tuple[int, int]]] = [[] for _ in range(c)]
    for i in range(cb):
        for j in range(c):
            deg = int(w.entries[i, j])
            if deg != NO_EDGE:
                edges_by_col[j].append((i, deg))
    for t in range(m):
        for j in range(c):
            blocks = [0] * cb
            cid = t * c + j
            for i, deg in edges_by_col[j]:
                bit = (t + deg) % m
                blocks[i] = 1 << bit
                hitters[i * m + bit].append(cid)
            col_synd[cid] = tuple(blocks)
    return col_synd, hitters


def _resolve_code(code) -> tuple[DegreeMatrix, int]:
    if isinstance(code, TailbitingCode):
        return code.degree, code.m
    if isinstance(code, SparseParityCheck):
        return degree_matrix_of_lift(code)
    w, m = code
    return w, m


def _branch_and_bound(w: DegreeMatrix, m: int, t: int, strengthened: bool,
                      ) -> tuple[int, tuple[int, ...] | None]:
    """Smallest zero-sum column subset below t columns, with its support
    (tailbiting column indices), or (t, None) when none exists."""
    cb, c = w.n_rows, w.n_cols
    col_synd, hitters = _column_tables(w, m)
    # the weak criterion needs the heaviest column: one branch cancels at
    # most that many ones in total
    col_weight = int((w.entries != NO_EDGE).sum(axis=0).max())
    best = t
    support: tuple[int, ...] | None = None
    limit = sys.getrecursionlimit()
    if t + 16 > limit:
        sys.setrecursionlimit(t + 64)

    def extend(blocks: tuple[int, ...], used: set[int], count: int, root: int) -> None:
        nonlocal best, support
        budget = best - 1 - count
        if budget < 0:
            return
        lowest = -1
        total_weight = 0
        for i, b in enumerate(blocks):
            if b:
                weight = b.bit_count()
                total_weight += weight
                if strengthened and weight > budget:
                    return
                if lowest < 0:
                    lowest = i * m + (b & -b).bit_length() - 1
        if lowest < 0:
            if count < best:
                best = count
                support = tuple(sorted(used))
            return
        if not strengthened and total_weight > col_weight * budget:
            return
        if budget == 0:
            return
        for cid in hitters[lowest]:
            if cid <= root or cid in used:
                continue
            cs = col_synd[cid]
            used.add(cid)
            extend(tuple(b ^ x for b, x in zip(blocks, cs)), used, count + 1, root)
            used.discard(cid)

    try:
        for root in range(c):
            extend(col_synd[root], {root}, 1, root)
    finally:
        sys.setrecursionlimit(limit)
    return best, support


def min_distance_md(code: TailbitingCode | SparseParityCheck | tuple[DegreeMatrix, int],
                    t: int, strengthened: bool = True) -> Distance:
    """Branch-and-bound distance: exact d_min when d_min < t, else a
    certificate that d_min >= t.

    ``strengthened`` selects per-block weight pruning; the weaker global
    J*(budget) criterion gives identical answers, only slower.
    """
    if t < 2:
        raise ValueError("distance cap must be at least 2")
    w, m = _resolve_code(code)
    best, _ = _branch_and_bound(w, m, t, strengthened)
    if best < t:
        return Distance(best, True)
    return Distance(t, False)


def min_weight_codeword(code, t: int) -> tuple[Distance, tuple[int, ...] | None]:
    """Like :func:`min_distance_md` but also returns the witness support as
    column indices of the tailbiting layout (empty for a lower bound)."""
    if t < 2:
        raise ValueError("distance cap must be at least 2")
    w, m = _resolve_code(code)
    best, support = _branch_and_bound(w, m, t, True)
    if best < t:
        return Distance(best, True), support
    return Distance(t, False), None


def min_distance_bruteforce(h: SparseParityCheck, max_dim: int = 28) -> int:
    """Exact d_min by enumerating all nonzero codewords from a nullspace
    basis (meet-in-the-middle over two halves of the basis)."""
    h_packed = h.packed()
    k = h.n_cols - gf2.rank(h_packed, h.n_cols)
    if k == 0:
        raise ValueError("code has no nonzero codewords")
    if k > max_dim:
        raise ValueError(f"dimension {k} exceeds enumeration budget {max_dim}")
    basis = gf2.nullspace_basis(h_packed, h.n_cols)
    packed = gf2.pack_rows(basis)
    k1 = min(k, max(1, k // 2 + 1))
    front = _xor_table(packed[:k1])
    back = _xor_table(packed[k1:])
    best = None
    for qi in range(back.shape[0]):
        x = front ^ back[qi]
        weights = np.bitwise_count(x).sum(axis=1, dtype=np.int64)
        if qi == 0:
            weights[0] = np.iinfo(np.int64).max  # skip the all-zero codeword
        w = int(weights.min())
        if best is None or w < best:
            best = w
    return best


def _xor_table(packed_rows: np.ndarray) -> np.ndarray:
    """All 2^k XOR combinations of the given packed rows."""
    k, words = packed_rows.shape if packed_rows.size else (0, 1)
    table = np.zeros((1, words), dtype=np.uint64)
    for i in range(k):
        table = np.vstack([table, table ^ packed_rows[i]])
    return table


def iterative_deepening_distance(code, t0: int, t_max: int,
                                 strengthened: bool = True) -> Distance:
    """Run the branch-and-bound with doubling caps until exact or t_max."""
    if t0 > t_max:
        raise ValueError("t0 must not exceed t_max")
    t = t0
    while True:
        res = min_distance_md(code, t, strengthened=strengthened)
        if res.exact or t >= t_max:
            return res
        t = min(2 * t, t_max)
