"""Structural bounds: base-graph girth, the 2x3 all-ones girth cap, the
achievable-girth lower bound, the Moore floor on the tailbiting length M of
a lift with a target girth, Tanner's tree bound on the minimum distance and
the factorial minimum-distance cap.
"""

from __future__ import annotations

import math

import numpy as np

from . import gf2
from .girth import girth_bfs_oracle
from .matrices import BaseMatrix, SparseParityCheck


class OverBudgetError(Exception):
    """Cycle-space dimension exceeds the enumeration budget."""


def base_girth(b: BaseMatrix, cap: int = 64) -> int | None:
    """Girth of the base graph via the BFS oracle; None if above cap."""
    h = SparseParityCheck.from_dense(b.entries)
    return girth_bfs_oracle(h, cap=cap)


def theorem3_applies(b: BaseMatrix) -> bool:
    """True iff some pair of rows shares at least three columns, i.e. the
    base contains a 2x3 all-ones submatrix after reordering.  Voltage girth
    is then capped at 12 regardless of the assignment."""
    e = b.entries.astype(np.int32)
    overlaps = e @ e.T
    np.fill_diagonal(overlaps, 0)
    return bool((overlaps >= 3).any())


# Walk counts saturate at _COUNT_CAP: a floor that large rules out every M a
# lift could be built at, and a vertex's in-sum of capped counts stays far
# inside int64.  A block of roots holds about _COUNT_VALUES dart counts.
_COUNT_CAP = 1 << 40
_COUNT_VALUES = 1 << 18


def _walk_counts(b: BaseMatrix, roots: np.ndarray, depth: int):
    """Yield, for d = 0..depth, an (len(roots), n_rows + n_cols) array
    whose [r, u] entry counts the non-backtracking walks of length d from
    base vertex ``roots[r]`` to u.  Constraints are vertices 0..n_rows-1 and
    symbols follow them.

    Counts are kept per dart (directed edge) and saturate at ``_COUNT_CAP``.
    A walk on dart a->b continues on every b->x with x != a, so
    ``new[b->x] = sum_a old[a->b] - old[x->b]``: O(depth * edges) per root.
    """
    rr, cc = np.nonzero(b.entries)
    n_edges = rr.size
    head = np.concatenate([b.n_rows + cc, rr])
    order = np.argsort(head, kind="stable")  # darts grouped by head
    tail = np.concatenate([rr, b.n_rows + cc])[order]
    rev = np.argsort(order)[(order + n_edges) % (2 * n_edges)]
    ptr = np.searchsorted(head[order], np.arange(b.n_rows + b.n_cols + 1))
    at = np.zeros((roots.size, b.n_rows + b.n_cols), dtype=np.int64)
    at[np.arange(roots.size), roots] = 1
    darts = np.zeros((roots.size, 2 * n_edges), dtype=np.int64)
    cum = np.zeros((roots.size, 2 * n_edges + 1), dtype=np.int64)
    for d in range(depth + 1):
        yield at
        if d < depth:
            darts = np.minimum(at[:, tail] - darts[:, rev], _COUNT_CAP)
            np.cumsum(darts, axis=1, out=cum[:, 1:])
            at = cum[:, ptr[1:]] - cum[:, ptr[:-1]]


def lift_floor(b: BaseMatrix, g: int) -> int:
    """Lower bound on the tailbiting length M of every lift of the base with
    girth >= g (Moore bound; Hoory, JCTB 86, 2002).

    In a lift of girth >= g = 2t, the ball of radius t - 1 around any vertex
    is a tree.  So the non-backtracking walks of length <= t - 1 from a base
    vertex v to a base vertex u end at distinct lifts of u, and M is at least
    their number.  The floor is the largest such count over every (v, u),
    exact below ``_COUNT_CAP``.
    """
    if g % 2 != 0 or g < 4:
        raise ValueError("target girth must be even and at least 4")
    n_vertices = b.n_rows + b.n_cols
    step = max(1, _COUNT_VALUES // (2 * int(b.entries.sum()) + 1))
    floor = 0
    for lo in range(0, n_vertices, step):
        roots = np.arange(lo, min(lo + step, n_vertices))
        floor = max(floor, int(sum(_walk_counts(b, roots, g // 2 - 1)).max()))
    return min(floor, _COUNT_CAP)


def theorem2_lower_bound(b: BaseMatrix, d2: int | None = None) -> int:
    """Girth achievable by some tailbiting length and voltage assignment:
    2*max(g_B + ceil(g_B/2), d_2), at least 3*g_B."""
    g_b = base_girth(b)
    if g_b is None:
        raise ValueError("base graph is acyclic; the bound is unbounded")
    inner = g_b + math.ceil(g_b / 2)
    if d2 is not None:
        inner = max(inner, d2)
    return 2 * inner


def _cycle_space(b: BaseMatrix) -> np.ndarray:
    """Basis of the cycle space of the base graph (nullspace of the
    vertex-edge incidence matrix), one row per basis vector over edges."""
    edges = b.edges()
    n_vertices = b.n_rows + b.n_cols
    inc = np.zeros((n_vertices, len(edges)), dtype=np.uint8)
    for e, (i, j) in enumerate(edges):
        inc[i, e] = 1
        inc[b.n_rows + j, e] = 1
    return gf2.nullspace_basis(gf2.pack_rows(inc), len(edges))


def d2_bruteforce(b: BaseMatrix, budget: int) -> int | None:
    """Minimum support of a two-dimensional subcode of the cycle space.

    Enumerates all pairs of distinct nonzero cycle-space vectors, so it needs
    cycle dimension <= budget.  Returns None when the cycle space has
    dimension below two (no such subcode exists).
    """
    basis = _cycle_space(b)
    dim = basis.shape[0]
    if dim < 2:
        return None
    if dim > budget:
        raise OverBudgetError(f"cycle space dimension {dim} exceeds budget {budget}")
    basis_ints = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
                  for row in basis]
    words = [0]
    for i in range(dim):  # Gray-free full enumeration, 2^dim words
        words.extend(w ^ basis_ints[i] for w in list(words))
    words = words[1:]  # drop zero
    best = None
    for i in range(len(words)):
        wi = words[i]
        for j in range(i + 1, len(words)):
            support = (wi | words[j]).bit_count()
            if best is None or support < best:
                best = support
    return best


def tanner_tree_bound(j: int, g: int) -> int:
    """Lower bound on d_min of any code whose Tanner graph has girth g and
    every column of weight at least j: Tanner's bit-oriented tree bound
    (Tanner, "Minimum-distance bounds by graph analysis", IEEE Trans. IT
    47(2), 2001).

    Every check that meets a codeword meets it at least twice.  So from one
    bit of a codeword, each of its j checks leads to another bit of the
    codeword, and each of those to j - 1 further checks and bits.  Below
    depth g/2 the walk is a tree, so the bits it reaches are distinct:
    1 + j + j(j-1) + ... + j(j-1)^((g-6)/4) when g/2 is odd, and
    1 + j + ... + j(j-1)^((g-8)/4) + (j-1)^((g-4)/4) when g/2 is even.
    For j = 3 that is 4, 6, 10, 14, 22, 30, 46 at g = 6, 8, ..., 18."""
    if g % 2 != 0 or g < 4:
        raise ValueError("girth must be even and at least 4")
    if j < 1:
        raise ValueError("column weight must be at least 1")
    half = g // 2
    bound = 1 + j * sum((j - 1) ** i for i in range((half - 1) // 2))
    if half % 2 == 0:
        bound += (j - 1) ** ((half - 2) // 2)
    return bound


def distance_cap(j: int, has_zero_entries: bool, c: int, b: int) -> int:
    """Upper bound on d_min of any lift: (c-b+1)! in general, (j+1)! when the
    parity-check polynomial matrix has monomial entries only."""
    if has_zero_entries:
        return math.factorial(c - b + 1)
    return math.factorial(j + 1)
