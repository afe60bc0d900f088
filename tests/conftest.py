"""Shared golden data: a toy rate-1/4 (3,4)-regular degree matrix, its two
hand-checked lifts at M=2 (tailbiting and circulant layout), and the
canonical order-9 triple-system base matrix; helpers shared by the tests."""

from __future__ import annotations

import numpy as np
import pytest

from girthforge.matrices import DegreeMatrix, SparseParityCheck


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
    """``h`` with the ones of row ``r`` at ``cols`` flipped, keeping its layout
    and block metadata."""
    a, b = int(h.indptr[r]), int(h.indptr[r + 1])
    row = sorted(set(h.indices[a:b].tolist()) ^ set(cols))
    indptr = h.indptr.copy()
    indptr[r + 1:] += len(row) - (b - a)
    indices = np.concatenate((h.indices[:a], np.array(row, dtype=np.int64), h.indices[b:]))
    return SparseParityCheck(h.n_cols, indptr, indices, h.layout, h.block)


def reference_girth(h: SparseParityCheck, cap: int = 32, start_vertices=None):
    """Girth of the Tanner graph of ``h`` by the classic per-vertex BFS
    shortest-cycle search (Itai & Rodeh), one Python step per adjacency; None
    above ``cap``.  ``girth_bfs_oracle`` must return the same value."""
    n_v = h.n_rows + h.n_cols
    t = h.transpose()
    adj = [(h.indices[h.indptr[r]:h.indptr[r + 1]] + h.n_rows).tolist() for r in range(h.n_rows)]
    adj += [t.indices[t.indptr[c]:t.indptr[c + 1]].tolist() for c in range(h.n_cols)]
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
