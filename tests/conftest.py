"""Shared golden data: a toy rate-1/4 (3,4)-regular degree matrix, its two
hand-checked lifts at M=2 (tailbiting and circulant layout), and the
canonical order-9 triple-system base matrix; helpers shared by the tests,
among them the per-vertex BFS girth and the recursive branch and bound that
the numpy engines must agree with."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from girthforge.matrices import NO_EDGE, DegreeMatrix, SparseParityCheck
from girthforge.mindist import _resolve_code


TOY_TB = np.array([
    [1, 1, 1, 1, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 1, 1],
    [1, 0, 1, 0, 0, 1, 0, 1],
    [0, 0, 0, 0, 1, 1, 1, 1],
    [0, 0, 1, 1, 1, 1, 0, 0],
    [0, 1, 0, 1, 1, 0, 1, 0],
], dtype=np.uint8)

TOY_CIRC = np.array([
    [1, 0, 1, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 0, 1, 0, 1],
    [1, 0, 1, 0, 0, 1, 0, 1],
    [0, 1, 0, 1, 1, 0, 1, 0],
    [1, 0, 0, 1, 1, 0, 0, 1],
    [0, 1, 1, 0, 0, 1, 1, 0],
], dtype=np.uint8)

STS9_BASE = np.array([
    [0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0],
    [1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0],
    [1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0],
    [0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0],
    [1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0],
    [0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0],
    [0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1],
], dtype=np.uint8)


@pytest.fixture
def toy_degrees() -> DegreeMatrix:
    return DegreeMatrix(
        np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]]), modulus=2)


def toggle_row(h: SparseParityCheck, r: int, cols) -> SparseParityCheck:
    """``h`` with the ones of row ``r`` at ``cols`` flipped: a matrix built
    from arrays, which carries no lift."""
    a, b = int(h.indptr[r]), int(h.indptr[r + 1])
    row = sorted(set(h.indices[a:b].tolist()) ^ set(cols))
    indptr = h.indptr.copy()
    indptr[r + 1:] += len(row) - (b - a)
    indices = np.concatenate((h.indices[:a], np.array(row, dtype=np.int64), h.indices[b:]))
    return SparseParityCheck(h.n_cols, indptr, indices)


def reference_girth(h: SparseParityCheck, cap: int = 32, start_vertices=None):
    """Girth of the Tanner graph of ``h`` by the classic per-vertex BFS
    shortest-cycle search (Itai & Rodeh), one Python step per adjacency; None
    above ``cap``.  ``girth_bfs_oracle`` must return the same value."""
    n_v = h.n_rows + h.n_cols
    adj: list[list[int]] = [[] for _ in range(n_v)]
    for r in range(h.n_rows):  # builds its own symbol lists: the oracle reads h.transpose()
        for col in h.indices[h.indptr[r]:h.indptr[r + 1]].tolist():
            adj[r].append(h.n_rows + col)
            adj[h.n_rows + col].append(r)
    dist = [-1] * n_v
    parent = [-1] * n_v
    best = cap + 2
    for s in range(n_v) if start_vertices is None else start_vertices:
        touched = [s]
        dist[s] = 0
        frontier = [s]
        level = 0
        while frontier and 2 * level < best:
            nxt = []
            for u in frontier:
                for x in adj[u]:
                    if x == parent[u]:
                        continue
                    if dist[x] < 0:
                        dist[x] = dist[u] + 1
                        parent[x] = u
                        nxt.append(x)
                        touched.append(x)
                    else:
                        best = min(best, dist[u] + dist[x] + 1)
            frontier = nxt
            level += 1
        for v in touched:
            dist[v] = parent[v] = -1
    if best > cap:
        return None
    assert best % 2 == 0, "odd cycle reported on a bipartite graph"
    return best


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


def reference_branch_and_bound(code, t: int) -> tuple[int, tuple[int, ...] | None]:
    """Smallest zero-sum column subset below t columns, with its support
    (tailbiting column indices), or (t, None) when none exists: one Python
    call per tree node, syndromes as Python ints.  ``mindist``'s block engine
    must return the same value and support.

    It keeps the wider index rule on purpose (``cid <= root`` drops a
    column): root r admits every column above r, where the block engine's
    root j admits only columns of base column >= j.  So the A/B tests
    compare two different trees, the engine's being this one with whole
    subtrees cut off, which leaves the remaining leaves in the same
    preorder.  Both return the first leaf of the minimum weight d in their
    preorder, and that leaf is the same: if the first one here, under root
    r, used a column of base column j < r, its shift onto column j would be
    a weight-d leaf under root j, which comes earlier.  So its path uses
    base columns >= r only, and the engine's tree keeps it."""
    if t < 2:
        raise ValueError("distance cap must be at least 2")
    w = _resolve_code(code)
    cb, c, m = w.n_rows, w.n_cols, w.modulus
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
