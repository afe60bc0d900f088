"""Girth machinery: path trees, voltage inequalities, assignment checkers,
and an independent BFS girth oracle.

A target girth g is certified on a lifted graph iff no non-backtracking
closed walk of length < g in the base graph has voltage 0 (mod M).  All such
walks are enumerated as node pairs inside c symbol-rooted trees of depth
g/2 - 1: a pair with equal label and depth but different parents closes a
walk whose voltage is the difference of the two path voltages.

Trees grow over the base matrix's CSR (:class:`SparseParityCheck`), whose
slot k is base edge k in row-major order, and over its column-sorted slots.
One level expander serves :func:`grow_trees` and the level walker behind
:func:`check_assignment_sorted` and :func:`free_girth`.  It numbers a level's
nodes by parent, parents in stable order of their labels, and each parent's
children in slot order; inequality witnesses are node numbers, so this rule
fixes them.

Node pairs are enumerated in preorder, and each inequality is kept at its
first witness.  Before any key is built, a node whose path passes the root
of an earlier tree is dropped: each of its pairs has a row that occurs in
that tree (see :func:`collect_inequalities`).  The pairs that remain, about
a quarter of the full enumeration on the (3, K) complexity table, hold every
first witness.  Inequalities are deduplicated on exact word-major keys: a
difference row maps injectively to a few int64 words, stored word by word.
A hash of the words serves only as the sort key that brings equal keys
together; no key is dropped before its words compare equal.

Once the global first occurrences are known the keys are dropped: an
:class:`InequalitySet` holds the trees, one int64 witness (t, u, v) per row
and a bool mask of the rows whose pair difference is negated.  Its int8
coefficient rows are built from those on first access, in chunks of at most
``_ROW_CHUNK`` rows within one tree's slice, so :func:`complexity_counts`,
which needs only N_T and N_L, never builds a row, and :class:`GirthSystem`
writes each chunk straight into its support-sorted matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .matrices import (NO_EDGE, TAILBITING, BaseMatrix, DegreeMatrix, SparseParityCheck,
                       _is_integer, _valid_modulus)


@dataclass
class PathTree:
    """All non-backtracking paths from one symbol node, up to a depth cap.

    Nodes are stored level by level in creation order; ``voltages[n]`` is the
    symbolic path voltage of node n as integer coefficients per base edge
    (constraint-to-symbol traversal counts +1, the reverse -1).
    """

    number: np.ndarray
    depth: np.ndarray
    parent: np.ndarray
    voltages: np.ndarray
    levels: tuple[tuple[int, int], ...]
    keep: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return self.number.size

    def kept_count(self) -> int:
        return int(self.keep.sum()) if self.keep is not None else self.n_nodes


def _base_sides(b: BaseMatrix):
    """The base graph's slots per side as (slot pointer, edge id, neighbour):
    constraints from the base's CSR, whose slot k is edge k, then symbols
    from its column-sorted slots."""
    h = SparseParityCheck.from_dense(b.entries)
    t = h.transpose()
    return ((h.indptr, np.arange(h.indices.size), h.indices),
            (t.indptr, np.argsort(h.indices, kind="stable"), t.indices))


def _expand_level(labels: np.ndarray, edges: np.ndarray,
                  side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Non-backtracking children of one tree level, as (parent position
    within the level, edge id, child label) per child: parents in stable
    label order, each parent's children in slot order."""
    ptr, slot_edge, slot_label = side
    par = np.argsort(labels, kind="stable")
    first = ptr[labels[par]]
    count = ptr[labels[par] + 1] - first
    par = np.repeat(par, count)
    # a child's slot is its parent's first slot plus its rank among siblings
    slot = np.arange(par.size) + np.repeat(first - np.cumsum(count) + count, count)
    keep = slot_edge[slot] != edges[par]
    slot, par = slot[keep], par[keep]
    return par, slot_edge[slot], slot_label[slot]


def _grow_tree(sides, root: int, max_depth: int) -> PathTree:
    numbers = [np.array([root], dtype=np.int32)]
    edges = [np.array([-1], dtype=np.int32)]
    parents = [np.array([-1], dtype=np.int32)]
    volts = [np.zeros((1, sides[0][1].size), dtype=np.int8)]  # constraint slot k is edge k
    levels = [(0, 1)]

    for d in range(1, max_depth + 1):
        par, ch_e, ch_o = _expand_level(numbers[-1], edges[-1], sides[d % 2])
        if not par.size:
            break
        sign = -1 if d % 2 == 1 else 1  # odd depth: symbol -> constraint
        v = volts[-1][par]
        v[np.arange(par.size), ch_e] += sign
        numbers.append(ch_o.astype(np.int32))
        edges.append(ch_e.astype(np.int32))
        lo, hi = levels[-1]
        parents.append((lo + par).astype(np.int32))
        volts.append(v)
        levels.append((hi, hi + par.size))

    depth_arr = np.concatenate([np.full(n.size, i, dtype=np.int16)
                                for i, n in enumerate(numbers)])
    return PathTree(
        number=np.concatenate(numbers),
        depth=depth_arr,
        parent=np.concatenate(parents),
        voltages=np.vstack(volts),
        levels=tuple(levels),
    )


def grow_trees(b: BaseMatrix, g: int) -> list[PathTree]:
    """Grow one tree of depth g/2 - 1 per symbol node of the base graph."""
    if g % 2 != 0 or g < 4:
        raise ValueError("target girth must be even and at least 4")
    sides = _base_sides(b)
    return [_grow_tree(sides, j, g // 2 - 1) for j in range(b.n_cols)]


# rows per chunk when coefficient rows are built from witnesses: 1 MB of
# int8 on a 64-edge base, so a chunk's gathers stay small beside the matrix
_ROW_CHUNK = 1 << 14


@dataclass(frozen=True)
class InequalitySet:
    """The unique voltage inequalities `coeffs @ voltages != 0` over base
    edges, one row per unique closed walk, in first-witness order.

    ``witness`` is int64 (N_L, 3) and holds the first node pair that
    produced each row as (tree index, node u, node v), ordered by tree;
    ``negate`` marks the rows whose difference voltages[u] - voltages[v]
    has a negative first nonzero coefficient.  With the trees, that is all
    the set holds.  ``coeffs``, int8 (N_L, n_edges) with each row
    sign-normalized so that its first nonzero coefficient is positive, is
    built from them on first access and kept.
    """

    trees: tuple[PathTree, ...]
    witness: np.ndarray
    negate: np.ndarray

    def __len__(self) -> int:
        return self.witness.shape[0]

    @property
    def n_edges(self) -> int:
        return self.trees[0].voltages.shape[1] if self.trees else 0

    def row_chunks(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """(lo, hi, coefficient rows lo:hi) in row order, chunks of at most
        ``_ROW_CHUNK`` rows, each within one tree's slice of the witnesses."""
        bounds = _tree_bounds(self.witness[:, 0], len(self.trees))
        for tree, start, stop in zip(self.trees, bounds[:-1], bounds[1:]):
            for lo in range(start, stop, _ROW_CHUNK):
                hi = min(lo + _ROW_CHUNK, stop)
                u, v, negate = self.witness[lo:hi, 1], self.witness[lo:hi, 2], self.negate[lo:hi]
                # a negated row is the difference taken the other way round;
                # coefficients are bounded by the tree depth, so int8 cannot overflow
                rows = np.take(tree.voltages, np.where(negate, v, u), axis=0)
                rows -= np.take(tree.voltages, np.where(negate, u, v), axis=0)
                yield lo, hi, rows

    @cached_property
    def coeffs(self) -> np.ndarray:
        coeffs = np.empty((len(self), self.n_edges), dtype=np.int8)
        for lo, hi, rows in self.row_chunks():
            coeffs[lo:hi] = rows
        return coeffs


def _dfs_rank(tree: PathTree) -> np.ndarray:
    """Preorder index of every node (children visited in creation order).

    :func:`_expand_level` emits each parent's children contiguously, so a
    level splits into sibling segments.  Subtree sizes add up bottom-up, one
    segment sum per level; then a node's rank is its parent's, plus one,
    plus the subtree sizes of its earlier siblings.
    """
    parent = tree.parent
    segments = []  # first node of each sibling segment, per level below the root
    for lo, hi in tree.levels[1:]:
        par = parent[lo:hi]
        segments.append(np.flatnonzero(np.r_[True, par[1:] != par[:-1]]))
    size = np.ones(tree.n_nodes, dtype=np.int64)
    for (lo, hi), seg in zip(reversed(tree.levels[1:]), reversed(segments)):
        size[parent[lo + seg]] += np.add.reduceat(size[lo:hi], seg)
    rank = np.zeros(tree.n_nodes, dtype=np.int64)
    for (lo, hi), seg in zip(tree.levels[1:], segments):
        before = np.cumsum(size[lo:hi]) - size[lo:hi]
        before -= np.repeat(before[seg], np.diff(np.r_[seg, hi - lo]))
        rank[lo:hi] = rank[parent[lo:hi]] + 1 + before
    return rank


def _pair_groups(tree: PathTree) -> tuple[int, np.ndarray]:
    """(first node at depth 2, (depth, label) code of every node from it on):
    the nodes that can pair, and the groups they pair within."""
    lo = tree.levels[2][0] if len(tree.levels) > 2 else tree.n_nodes
    labels = int(tree.number.max()) + 1
    return lo, tree.depth[lo:].astype(np.int64) * labels + tree.number[lo:]


def _earlier_symbols(trees: Sequence[PathTree]) -> list[np.ndarray]:
    """Per tree t of the list, a boolean over labels that marks the symbols
    whose own tree sits before t in the list and is at least as deep as
    tree t.  Roots missing from the list are never earlier."""
    deepest = np.full(max(int(t.number.max()) for t in trees) + 1, -1)
    earlier = []
    for tree in trees:
        depth = len(tree.levels) - 1
        earlier.append(deepest >= depth)
        root = tree.number[0]
        deepest[root] = max(deepest[root], depth)
    return earlier


def _passes_earlier(tree: PathTree, earlier: np.ndarray) -> np.ndarray:
    """Per node, whether its path passes an earlier symbol below the root,
    carried level by level from the parent."""
    passes = np.zeros(tree.n_nodes, dtype=bool)
    for d, (lo, hi) in enumerate(tree.levels[2:], start=2):
        passes[lo:hi] = passes[tree.parent[lo:hi]]
        if d % 2 == 0:  # symbol level
            passes[lo:hi] |= earlier[tree.number[lo:hi]]
    return passes


def _candidate_pairs(tree: PathTree,
                     earlier: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The qualifying node pairs of one tree (same depth and label), ordered
    as a double loop over the preorder node array would visit them, as int32
    (u, v) with u before v in preorder.

    Two children of one node always carry different labels, so any same-level
    same-label pair automatically has distinct parents.  The ordering fixes
    which pair first witnesses each inequality and thereby the reduced-tree
    node counts.  Nodes are taken in preorder and grouped by a stable sort,
    so each group lists its members in preorder, and each node pairs with the
    group members after it.

    With ``earlier`` (a boolean over symbol labels, see
    :func:`_earlier_symbols`), a node whose path passes an earlier symbol
    below the root pairs with nothing: it is dropped from the preorder node
    list before grouping, so the pairs that remain keep their order.  See
    :func:`collect_inequalities` for why no first witness is dropped.
    """
    lo, group = _pair_groups(tree)
    in_preorder = np.empty(tree.n_nodes, dtype=np.int32)
    in_preorder[_dfs_rank(tree)] = np.arange(tree.n_nodes, dtype=np.int32)
    node = in_preorder[in_preorder >= lo]
    if earlier is not None:
        node = node[~_passes_earlier(tree, earlier)[node]]
    if not node.size:
        empty = np.zeros(0, dtype=np.int32)
        return empty, empty
    key = group[node - lo]
    by_group = np.argsort(key, kind="stable")
    key = key[by_group]
    position = np.empty_like(by_group)  # of each preorder node in by_group
    position[by_group] = np.arange(by_group.size)
    later = np.searchsorted(key, key, side="right")[position] - position - 1
    u = np.repeat(node, later)
    # v's index in by_group, pair by pair: int32 like the node numbers
    v = np.repeat((position + 1 - (np.cumsum(later) - later)).astype(np.int32), later)
    v += np.arange(u.size, dtype=np.int32)
    return u, node[by_group][v]


def _key_weights(trees: Sequence[PathTree]) -> np.ndarray:
    """(n_edges, n_words) int64 weights that map a coefficient row exactly
    to integer words: balanced base B, edge 0 the most significant digit.

    With every path voltage bounded by m, a pair difference is bounded by
    2m, so B = 4m + 1 keeps the map injective, the words fit in int64, and
    the sign of a row's first nonzero word is the sign of its first nonzero
    coefficient.  Keys are linear, so a pair's key is the difference of its
    two nodes' keys.
    """
    n_edges = trees[0].voltages.shape[1]
    m = max(1, *(int(np.abs(t.voltages).max(initial=0)) for t in trees))
    base = 4 * m + 1
    per_word = 1
    while base ** (per_word + 1) < 2 ** 63:
        per_word += 1
    weights = np.zeros((n_edges, -(-n_edges // per_word)), dtype=np.int64)
    for e in range(n_edges):
        weights[e, e // per_word] = base ** (per_word - 1 - e % per_word)
    return weights


# odd 64-bit multiplier (2**64 / golden ratio) that mixes key words into a hash
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct key column
    of a word-major (n_words, n) int64 array.

    The words mix into a uint64 hash whose low bit_length(n - 1) bits are
    overwritten with the column index.  The indices are distinct, so one
    plain (unstable) sort orders the values totally: columns with equal
    high bits form a run, and within a run the low bits put them in index
    order.

    The hash decides nothing by itself.  Equal keys have equal hashes, so
    all columns of one key fall in one run; the run may also hold other
    keys whose hashes collide.  So every run is checked by comparing
    adjacent columns word by word.  A run holding two distinct keys has an
    adjacent pair that differs, so if no adjacent pair within a run differs,
    each run is exactly one key, and its first column, the smallest index,
    is that key's first occurrence.  If any pair differs, the call is
    answered exactly by :func:`_first_occurrences_exact`, which uses no
    hash.
    """
    n = keys.shape[1]
    low = (n - 1).bit_length() if n else 0
    index_bits = np.uint64((1 << low) - 1)
    mixed = np.zeros(n, dtype=np.uint64)
    for word in keys:
        mixed += word.view(np.uint64)
        mixed *= np.uint64(_HASH_MULTIPLIER)
    mixed &= ~index_bits
    mixed |= np.arange(n, dtype=np.uint64)
    mixed.sort()
    order = np.bitwise_and(mixed, index_bits).view(np.intp)
    mixed >>= np.uint64(low)
    same_run = mixed[1:] == mixed[:-1]
    del mixed
    w = np.empty(n, dtype=np.int64)  # one gather buffer serves every word
    for word in keys:
        # order is in range: "clip" changes nothing and spares take's buffered copy
        np.take(word, order, out=w, mode="clip")
        differ = w[1:] != w[:-1]
        differ &= same_run
        if differ.any():
            return _first_occurrences_exact(keys)
    del w
    first = np.ones(n, dtype=bool)
    first[order[1:][same_run]] = False
    return np.flatnonzero(first)


def _first_occurrences_exact(keys: np.ndarray) -> np.ndarray:
    """:func:`_first_occurrences` by a stable lexsort: within a run of
    equal columns the first index comes first."""
    perm = np.lexsort(keys[::-1])  # first word is the primary key
    new_run = np.zeros(keys.shape[1], dtype=bool)
    new_run[:1] = True
    for word in keys:
        w = word[perm]
        new_run[1:] |= w[1:] != w[:-1]
    return np.sort(perm[new_run])


def _tree_unique_inequalities(tree: PathTree, weights: np.ndarray, earlier: np.ndarray):
    """Per-tree canonical word-major inequality keys, kept in
    pair-enumeration order, with the mask of keys negated to make them
    canonical and the first witness (u, v) as two arrays."""
    u_nodes, v_nodes = _candidate_pairs(tree, earlier)
    # one contiguous row per word: two 1-D gathers per word build the keys
    node_keys = np.ascontiguousarray((tree.voltages.astype(np.int64) @ weights).T)
    keys = np.empty((weights.shape[1], u_nodes.size), dtype=np.int64)
    for word, node_word in zip(keys, node_keys):
        np.subtract(node_word[u_nodes], node_word[v_nodes], out=word)
    # canonical sign: first nonzero coefficient positive
    negate = keys[0] < 0
    undecided = keys[0] == 0
    for word in keys[1:]:
        negate |= undecided & (word < 0)
        undecided &= word == 0
    del undecided
    np.negative(keys, out=keys, where=negate)
    order = _first_occurrences(keys)
    return keys[:, order], negate[order], u_nodes[order], v_nodes[order]


def _tree_bounds(tree_index: np.ndarray, n_trees: int) -> np.ndarray:
    """Row bounds of each tree's slice of tree-sorted witness rows: tree t
    owns rows bounds[t]:bounds[t + 1]."""
    return np.searchsorted(tree_index, np.arange(n_trees + 1))


def collect_inequalities(trees: Sequence[PathTree]) -> InequalitySet:
    """Unique voltage inequalities over all trees, first witness recorded.

    The first witness of a row is its first pair in the full enumeration:
    trees in list order, and within a tree the preorder double loop of
    :func:`_candidate_pairs`.  Keys are built only for the pairs of nodes
    whose paths pass no earlier symbol, and the result is the same, because
    every other pair has a row that occurs in an earlier tree.  A symbol is
    *earlier* in tree t if its own tree sits before t in the list and is at
    least as deep.  Take a pair (u, v) of tree t at depth d whose path to u
    passes the earlier symbol s below the root:

    - Cut the pair back k levels, while its last edges are equal.  Equal
      last edges cancel in the difference, so the cut pair (a, b) has the
      same row.  It has distinct last edges and depth >= 2, because the
      root's children have distinct labels.
    - Let y be the label of the last common node of a and b, at depth p,
      and x the label of a and b.  Below that node, the paths of a and b
      close a cyclically reduced walk W of length 2(d - k - p) with the same
      row, through y and x.
    - The path to u runs from the root to y, along W from y to x, and on
      from x for k edges.  So s lies on W, before y or after x.
    - In tree s, go to W the short way: not at all, down to y, or back up
      to x.  The path down enters y by an edge that W does not use at y, and
      the path up leaves x by the edge that the cut-off parts of both paths
      take, which W does not use at x either.  Then go half way round W in
      each direction.  These two paths are non-backtracking, at most d long,
      split where they reach W and end at one label: a pair of tree s whose
      row is W's up to sign.  Tree s is at least as deep as tree t, so it
      holds that pair.

    So the kept pairs are an in-order subsequence of the full enumeration
    that holds every first witness, and coeffs, witnesses, N_L and N_T are
    those of the full enumeration.

    Per tree the builder holds the kept pairs' keys, their negation mask
    and their witness nodes, cut to the tree's first occurrences, then all
    trees' at once for the global dedup.  The keys go as soon as the global
    first occurrences are known; the witnesses are written straight into
    the result's int64 array.  No coefficient row is built here: the result
    builds them from the witnesses on first access to ``coeffs``.
    """
    if not trees:
        return InequalitySet((), np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=bool))
    weights = _key_weights(trees)
    blocks = [_tree_unique_inequalities(tree, weights, earlier)
              for tree, earlier in zip(trees, _earlier_symbols(trees))]
    ends = np.cumsum([block[2].size for block in blocks])  # of each tree's keys
    keys, negate, u, v = (np.concatenate(parts, axis=-1) for parts in zip(*blocks))
    del blocks
    order = _first_occurrences(keys)  # global first occurrences, in order
    del keys
    witness = np.empty((order.size, 3), dtype=np.int64)
    witness[:, 0] = np.searchsorted(ends, order, side="right")
    witness[:, 1] = u[order]
    witness[:, 2] = v[order]
    return InequalitySet(tuple(trees), witness, negate[order])


def reduce_trees(trees: Sequence[PathTree],
                 ineqs: InequalitySet) -> list[PathTree]:
    """Keep only nodes on the witness paths of the unique inequalities
    (witness rows ordered by tree, as :func:`collect_inequalities` gives
    them)."""
    witness = ineqs.witness
    bounds = _tree_bounds(witness[:, 0], len(trees))
    keeps = []
    for tree, start, stop in zip(trees, bounds[:-1], bounds[1:]):
        keep = np.zeros(tree.n_nodes, dtype=bool)
        keep[witness[start:stop, 1:]] = True
        keeps.append(keep)
        for lo, hi in reversed(tree.levels[1:]):  # ancestors, deepest level first
            keep[tree.parent[lo:hi][keep[lo:hi]]] = True
    return [replace(t, keep=k) for t, k in zip(trees, keeps)]


def complexity_counts(b: BaseMatrix, g: int) -> tuple[int, int]:
    """(N_T, N_L): total reduced-tree nodes and unique inequality count."""
    trees = grow_trees(b, g)
    ineqs = collect_inequalities(trees)
    return sum(t.kept_count() for t in reduce_trees(trees, ineqs)), len(ineqs)


def node_pair_count(trees: Sequence[PathTree]) -> int:
    """Number of qualifying node pairs of the full enumeration, before any
    pruning or deduplication: s(s - 1)/2 over the sizes s of the (depth,
    label) groups.  :func:`collect_inequalities` keys fewer pairs, since it
    drops those whose row occurs in an earlier tree; this count is the
    paper's, 36 on the (3, 4) base at g = 6."""
    total = 0
    for tree in trees:
        sizes = np.unique(_pair_groups(tree)[1], return_counts=True)[1]
        total += int((sizes * (sizes - 1) // 2).sum())
    return total


# ---------------------------------------------------------------------------
# Assignment checking
# ---------------------------------------------------------------------------

# The staged evaluator checks the stacked inequalities in chunks, the
# shortest cycles first: they reject nearly every random assignment.  A
# block is evaluated in float32 when every value of it fits float32's exact
# integers (see GirthSystem), else in float64, and chunks are budgeted in
# bytes so that either type keeps the same memory behaviour.  A chunk's
# value arrays hold about _CHUNK_BYTES (64 KB: 2**14 float32 or 2**13
# float64 values), so a chunk widens as assignments drop out, but is never
# narrower than _MIN_CHUNK rows.  A search block of 512 assignments starts
# at that size too, so each of a chunk's two value arrays stays below
# glibc's default 128 KB mmap threshold.  Larger arrays were mapped, or the
# heap trimmed, and faulted in again chunk after chunk whenever the
# process's earlier allocations had left the threshold low: a search_34
# round then took 2.1 s instead of 1.4 s on a 2-core host.  The product also
# casts the chunk's int8 rows to the float type, width x n_edges values, and
# a chunk is cut to _CAST_BYTES of them (never below _MIN_CHUNK rows).  The
# cut never binds on the (3,4) systems of that search (at most 519 rows of
# 12 edges), but it keeps a lone surviving assignment from casting 8192-row
# chunks, 3.9 MB each in float64 on a 60-edge base such as s_sts13.  A cut
# at the value budget made that pass slower than no cut at all: its 7,000
# chunks cost more in per-chunk overhead than the smaller casts saved.
_CHUNK_BYTES = 1 << 16
_CAST_BYTES = 1 << 19
_MIN_CHUNK = 16
# float32 and float64 represent every integer of magnitude up to 2**24 and
# 2**53 exactly
_FLOAT32_EXACT = 2 ** 24
_FLOAT64_EXACT = 2 ** 53


def _check_width(shape: tuple[int, ...], n_edges: int) -> None:
    if shape[-1:] != (n_edges,):
        raise ValueError(f"assignments need {n_edges} entries per row, not shape {shape}")


class GirthSystem:
    """The voltage inequalities of one (base, target girth) pair, reused
    across many assignment checks.

    The int8 inequality rows of ``collect_inequalities`` are stacked once
    into an (N_L, n_edges) matrix, stably sorted by support size so that the
    shortest cycles come first; that matrix is all the system keeps.  It is
    filled straight from the witnesses in chunks of rows: one pass counts
    each row's support, a stable argsort gives each row its place, and a
    second pass writes each chunk into its sorted rows, so no unsorted copy
    of the matrix is built.  Every check casts a block of assignments to the
    narrowest float type that holds its values exactly (float32 or float64,
    below), then evaluates that matrix on it in chunks of about
    ``_CHUNK_BYTES`` of values, each chunk's rows cast to the same type for
    the product (at most ``_CAST_BYTES``), dropping the assignments a chunk
    rejects.

    Every row is a closed walk of length at most g - 2 and counts its signed
    edge traversals, so its L1 norm is at most g - 2.  On a block whose
    largest entry has magnitude E, every value v and every partial sum of a
    row therefore has magnitude at most (g - 2) * E.  Let P be 2**24 for
    float32 or 2**53 for float64: each represents every integer of magnitude
    up to P exactly.  A value v is zero mod M iff ``rint(v / M) * M == v``
    in that type, provided (g - 2) * E + M <= P.  The products are exact,
    since every partial sum is an integer of magnitude below P.  If M | v,
    then v / M is an integer the type holds, so the division and the
    rounding are exact and k * M == v.  Otherwise rint gives some integer
    k', with |k'| <= ceil(|v| / M) because no rounding step crosses an
    integer below P.  So k' * M is an integer of magnitude at most
    |v| + M <= P, computed exactly, and differs from v.  A block is
    therefore evaluated in float32 when (g - 2) * E + M <= 2**24, in float64
    when it is at most 2**53, and every check raises ``ValueError`` on a
    block past 2**53.
    """

    def __init__(self, base: BaseMatrix, g: int):
        self.base = base
        self.g = g
        ineqs = collect_inequalities(grow_trees(base, g))
        # the narrowest type that holds n_edges: numpy's stable sort radix-sorts 8 and 16 bits
        support = np.empty(len(ineqs), dtype=np.min_scalar_type(ineqs.n_edges))
        for lo, hi, rows in ineqs.row_chunks():
            support[lo:hi] = (rows != 0).sum(axis=1, dtype=support.dtype)
        dest = np.empty(len(ineqs), dtype=np.intp)  # each row's place in the matrix
        dest[np.argsort(support, kind="stable")] = np.arange(len(ineqs))
        del support
        self._matrix = np.empty((len(ineqs), ineqs.n_edges), dtype=np.int8)
        for lo, hi, rows in ineqs.row_chunks():
            self._matrix[dest[lo:hi]] = rows

    @property
    def n_edges(self) -> int:
        return self._matrix.shape[1]

    def _exact_block(self, block: np.ndarray, modulus: int) -> np.ndarray:
        """The block as float32 if every inequality value v of it has
        |v| + modulus <= 2**24, else as float64 if |v| + modulus <= 2**53,
        so the type holds v and the division residue mod a positive modulus
        is exact; past 2**53 a nonempty block raises ``ValueError``."""
        block = np.asarray(block)
        largest = max(int(block.max(initial=0)), -int(block.min(initial=0)))
        bound = (self.g - 2) * largest + modulus
        if bound <= _FLOAT32_EXACT:
            return block.astype(np.float32)
        if bound > _FLOAT64_EXACT and block.size:
            raise ValueError(
                f"walk length {self.g - 2} x largest entry {largest} "
                f"+ modulus {modulus} exceeds 2**53, past float64's exact integers")
        return block.astype(np.float64)

    def _passes(self, block: np.ndarray, modulus: int) -> np.ndarray:
        modulus = _valid_modulus(modulus)
        _check_width(np.shape(block), self.n_edges)
        rows = self._exact_block(block, modulus)
        # one column per live assignment: numpy's int8-by-float product
        # runs faster with the int8 chunk on the left of contiguous columns
        live = rows.reshape(-1, self.n_edges).T.copy()
        alive = np.arange(live.shape[1])
        item = rows.itemsize
        lo = 0
        while alive.size and lo < self._matrix.shape[0]:
            hi = lo + max(_MIN_CHUNK, min(_CHUNK_BYTES // (item * alive.size),
                                          _CAST_BYTES // (item * self.n_edges)))
            values = self._matrix[lo:hi] @ live
            residue = values / modulus
            np.rint(residue, out=residue)
            residue *= modulus
            keep = (residue != values).all(axis=0)
            live, alive = live.compress(keep, axis=1), alive.compress(keep)
            lo = hi
        ok = np.zeros(rows.shape[:-1], dtype=bool)
        ok.flat[alive] = True
        return ok

    def check(self, assignment: np.ndarray, modulus: int) -> bool:
        """True iff every inequality of one assignment is nonzero mod M."""
        return bool(self._passes(assignment, modulus))

    def check_batch(self, assignments: np.ndarray, modulus: int) -> np.ndarray:
        """Per-row :meth:`check` of a (batch, n_edges) block of assignments."""
        return self._passes(assignments, modulus)


# ---------------------------------------------------------------------------
# Level walker: the sorted-tree checker and free girth
# ---------------------------------------------------------------------------

def _first_repeats(b: BaseMatrix, block: np.ndarray, max_depth: int,
                   modulus: int | None) -> np.ndarray:
    """Per row of a (rows, n_edges) block, the first depth d <= max_depth
    at which two nodes of one path tree share label and path voltage (mod M
    if given), or 0.  The c symbol-rooted trees advance together, and tree j
    keeps only symbol labels >= j (canonical roots).

    Exact: a cyclically reduced zero walk of length 2l with smallest symbol
    j splits at j into its first half and reversed second half, two paths
    of tree j (every symbol >= j) with distinct first edges, one end label
    and equal voltages: a repeat at depth l.  Conversely, the nodes of a
    first repeat have distinct parents (siblings differ in label) and last
    edges (else the parents repeat a level up), so their paths, common
    prefix cut off, close a cyclically reduced zero walk of length <= 2d.
    """
    bound = max_depth * max(int(block.max(initial=0)), -int(block.min(initial=0)))
    if bound + (modulus or 0) > 2 ** 62:
        raise ValueError(f"path voltages up to {bound} + modulus {modulus} may overflow int64")
    sides = _base_sides(b)
    labels = tree = np.arange(b.n_cols)
    edges = np.full(b.n_cols, -1)
    values = np.zeros((block.shape[0], b.n_cols), dtype=np.int64)
    live = np.arange(block.shape[0])
    first = np.zeros(block.shape[0], dtype=np.int64)
    for d in range(1, max_depth + 1):
        if not (live.size and labels.size):
            break
        par, edges, labels = _expand_level(labels, edges, sides[d % 2])
        tree = tree[par]
        canon = (d % 2 == 1) | (labels >= tree)  # symbol levels: tree j keeps labels >= j
        par, edges, labels, tree = par[canon], edges[canon], labels[canon], tree[canon]
        values = values[:, par] + (1 if d % 2 == 0 else -1) * block[live[:, None], edges]
        if modulus is not None:
            values %= modulus
        group = np.broadcast_to(tree * (b.n_rows + b.n_cols) + labels, values.shape)
        order = np.lexsort((values, group))
        step = [np.diff(np.take_along_axis(a, order, 1)) for a in (group, values)]
        repeat = ((step[0] == 0) & (step[1] == 0)).any(axis=1)
        first[live[repeat]] = d
        live, values = live[~repeat], values[~repeat]
    return first


def check_assignment_sorted(base: BaseMatrix, g: int, assignments: np.ndarray,
                            modulus: int | None = None) -> bool | np.ndarray:
    """Sorted-tree checker, the paper's variant: True iff no path tree of
    ``base`` repeats (label, path voltage mod M, or over the integers) at a
    depth <= g/2 - 1.  A bool for one assignment, an array for a block."""
    if g % 2 != 0 or g < 4:
        raise ValueError("target girth must be even and at least 4")
    modulus = None if modulus is None else _valid_modulus(modulus)
    block = np.asarray(assignments, dtype=np.int64)
    _check_width(block.shape, int(np.count_nonzero(base.entries)))
    rows = block.reshape(-1, block.shape[-1])
    ok = (_first_repeats(base, rows, g // 2 - 1, modulus) == 0).reshape(block.shape[:-1])
    return bool(ok) if block.ndim == 1 else ok


def free_girth(w: DegreeMatrix, cap: int) -> int | None:
    """Length of the shortest zero-voltage closed walk over the integers, the
    girth of the unwrapped (infinite) lift; None above cap.  The level walker
    stops at the first repeat, so short-cycle bases stay cheap at any cap."""
    if cap % 2 != 0 or cap < 4:
        raise ValueError("cap must be even and at least 4")
    depth = _first_repeats(w.base(), w.entries[None, w.entries != NO_EDGE], cap // 2, None)[0]
    return 2 * int(depth) if depth else None


# ---------------------------------------------------------------------------
# BFS girth oracle on an explicit sparse matrix (independent certification)
# ---------------------------------------------------------------------------
_BFS_BLOCK = 1 << 20  # starts per BFS chunk x (vertices + adjacency slots)


def girth_bfs_oracle(h: SparseParityCheck, cap: int = 32,
                     start_vertices: Sequence[int] | None = None) -> int | None:
    """Exact girth of the Tanner graph of h via breadth-first shortest-cycle
    search; None if no cycle of length <= cap exists.

    Vertices 0..n_rows-1 are constraints, the rest symbols.  By default every
    vertex of the side with fewer vertices (the constraints on a tie) is a
    BFS start.  That is exact for any Tanner graph: every edge joins the two
    sides, so every cycle passes vertices of both, and a BFS from a vertex
    on a shortest cycle finds its length.  For lifted matrices one start per
    block orbit of one side suffices (see :func:`qc_start_vertices`).  A
    start that is not an integer (a float or a bool) or lies outside
    [0, n_rows + n_cols) raises ValueError.

    The starts of each side advance in chunks, one level L per step, so a
    chunk's level L lies wholly on one side: constraints expand through the
    rows of h, symbols through the rows of ``h.transpose()``, and no merged
    adjacency is built.  The per-vertex search (Itai & Rodeh) closes
    L + dist(x) + 1 at each visited non-parent neighbour x of a level-L
    vertex u: in a bipartite graph, 2L + 2 for x at L + 1 reached twice, or
    2L for x at L - 1 when u was.  So the one rule used here, a vertex
    reached twice closes 2L + 2, has the same minimum, and a visited
    neighbour at any level but L - 1 raises AssertionError.  A start visits
    each vertex and adjacency slot at most once, so _BFS_BLOCK bounds a
    chunk's distances and every level's gathered neighbours.  One distance
    array serves every chunk: after a chunk, only the keys it visited are
    reset.
    """
    n_r, n_v = h.n_rows, h.n_rows + h.n_cols
    if start_vertices is None:
        starts = np.arange(n_r) if n_r <= h.n_cols else np.arange(n_r, n_v)
    elif all(map(_is_integer, start_vertices)):
        starts = np.sort(np.asarray(start_vertices, dtype=np.int64))  # constraints first
    else:
        raise ValueError("start vertices must be integers")
    if starts.size and (starts[0] < 0 or starts[-1] >= n_v):
        raise ValueError(f"start vertices must lie in [0, {n_v})")
    t = h.transpose()
    # per side: its CSR row starts, row ends and indices, its first vertex, the other's
    sides = ((h.indptr[:-1], h.indptr[1:], h.indices, 0, n_r),
             (t.indptr[:-1], t.indptr[1:], t.indices, n_r, 0))
    cut = int(np.count_nonzero(starts < n_r))
    per_chunk = max(1, _BFS_BLOCK // (1 + n_v + 2 * h.indices.size))
    dist = np.full(min(per_chunk, max(cut, starts.size - cut)) * n_v, -1, dtype=np.int32)
    best = cap + 2
    for side, side_starts in enumerate((starts[:cut], starts[cut:])):
        for lo in range(0, side_starts.size, per_chunk):
            vert = side_starts[lo:lo + per_chunk]
            key = vert + n_v * np.arange(vert.size)  # (start, vertex) -> flat key
            visited = []
            level = 0
            while key.size and 2 * level + 2 < best:  # level L closes only 2L + 2
                dist[key] = level
                visited.append(key)
                row_start, row_end, indices, first, other = sides[(side + level) % 2]
                row = vert - first if first else vert
                end = row_end[row]
                cnt = end - row_start[row]
                ends = np.cumsum(cnt)
                row_base = np.repeat(key - vert, cnt)
                vert = indices[np.arange(ends[-1]) + np.repeat(end - ends, cnt)]
                if other:
                    vert += other
                key = row_base + vert
                seen = dist[key]
                fresh = seen < 0
                old = seen.size - np.count_nonzero(fresh)  # each must sit at level L - 1
                if old and (not level or np.count_nonzero(seen == level - 1) != old):
                    raise AssertionError("a visited neighbour is not on the level before")
                key, vert = key[fresh], vert[fresh]
                # a key reached twice keeps one entry's stamp; the other entry reads a mismatch
                dist[key] = stamp = np.arange(key.size, dtype=np.int32)
                once = dist[key] == stamp
                if np.count_nonzero(once) < key.size:
                    best = min(best, 2 * level + 2)
                    key, vert = key[once], vert[once]
                level += 1
            visited.append(key)  # the last level's stamps
            for key in visited:
                dist[key] = -1
    return None if best > cap else best


def qc_start_vertices(h: SparseParityCheck) -> list[int]:
    """BFS starts of a lifted matrix: one per cyclic-shift orbit of one
    side, the cb constraint orbits if cb <= c, else the c symbol orbits, but
    none in that side's last orbit when it has two or more.

    The cyclic shift is an automorphism of the Tanner graph, so it maps a
    shortest cycle to a shortest cycle.  A lifted symbol has one neighbour
    per base row it meets, so the two checks next to it on a cycle lie in
    two different constraint orbits; likewise a check has one neighbour per
    base column it meets.  So every cycle passes at least two orbits of
    each side, and a shortest cycle passes some vertex v of the chosen side
    outside its last orbit.  The shift taking v to the start of its orbit
    maps that cycle to a shortest cycle through a start.  A BFS from a
    vertex on a shortest cycle finds its length, and no BFS finds a shorter
    one, so these starts give the girth.  With one orbit on the chosen side
    no cycle exists, and its one start finds none.
    """
    if h.lift is None:
        raise ValueError("start vertices need a tailbiting or circulant lift")
    w, layout = h.lift
    m, c, cb = w.modulus, w.n_cols, w.n_rows
    step = 1 if layout == TAILBITING else m  # block column t = 0, or shift s = 0 per block
    if cb <= c:
        return [i * step for i in range(max(1, cb - 1))]
    return [h.n_rows + j * step for j in range(max(1, c - 1))]


def certified_girth(h: SparseParityCheck, cap: int = 32) -> int | None:
    """Girth via the BFS oracle, from orbit starts on a lift and from every
    vertex of the smaller side on any other matrix."""
    starts = None if h.lift is None else qc_start_vertices(h)
    return girth_bfs_oracle(h, cap=cap, start_vertices=starts)
