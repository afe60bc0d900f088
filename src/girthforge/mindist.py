"""Exact minimum distance of lifted codes.

The branch-and-bound engine grows one syndrome tree per base column: the
root syndrome is that column, every branch XORs in one further column that
covers the lowest set bit of the partial syndrome, and a node dies when some
M-row block of its syndrome weighs more than the remaining column budget
(each column clears at most one bit per block).

Roots.  Column t*c + j lies in block column t and base column j.  The
roots are the block-offset-zero columns 0..c-1, and root j admits only the
columns of base column j or above, other than itself.  No codeword is
lost: take one, let j be the smallest base column it uses, and shift it by
whole block columns, which maps codewords to codewords, until one of its
base-column-j columns lands on column j.  The shifted codeword contains
column j and only columns of base column >= j, so root j's tree reaches
it.  Root 0 admits every column, and the trees of roots 1..c-1 hold only
the codewords that avoid every lower base column.  The table of columns
covering each check bit pads its short rows with -1, and numpy reads
``-1 % c`` as base column c - 1, so the padding needs a drop of its own.

Word layout.  Check bit i*M + r (row r of block i) is bit (i*M + r) % 64 of
word (i*M + r) // 64, so a syndrome is ceil(cb*M/64) uint64 words and its
lowest set bit is the low bit of its first nonzero word.  Syndromes are
stored node-major, one row of words per node.  A column meets each base row
at most once, so it flips exactly one bit in each block it touches.  A node
therefore carries its cb block weights next to its words, and a child's
weight in block i is its parent's plus one, or minus one where the parent
has that bit set; the rule reads these weights and never counts bits.  A
child's syndrome is its parent's row of words with those bits flipped, read
off a (cb, M*c) table of each column's bit in each block.

Block stack.  The engine walks the tree in blocks of at most ``_BNB_BLOCK``
nodes of one depth, with no recursion.  It pops the top block, drops the
nodes the rule cuts under the current best (which may have fallen since the
push) and expands the rest at once.  A node's children are the columns
covering its lowest set bit, ascending, that its root admits and that lie
off its path; they come out parent-major.  A zero child is a codeword one
column heavier than its parent.  The other children face the rule at their
own budget, and the survivors are pushed in blocks with the first on top.
A block of depth k carries its nodes' paths as one (k, nodes) array of
columns, roots in row 0, so a candidate is tested against its whole path
in one compare, and a child's path is its parent's column of that array
with the child's column under it.

Witness.  The engine returns the first leaf of weight d in preorder, the
leaf a depth-first walk of the same tree returns, where d is the smallest
weight below the cap; its support is the parent's path column plus the
leaf's own column:
  * while the best weight found exceeds d, no ancestor of a weight-d leaf is
    cut: at depth k its syndrome is the sum of the d - k columns still to
    come, so it weighs at most d - k <= best - 1 - k in every block;
  * the blocks of one depth are popped in preorder, since the subtrees of a
    pushed block all precede those of the block pushed under it;
  * within a block the children come out parent-major, and the first zero
    child is taken.
So the first weight-d leaf found is the first in preorder, and after it
only a lighter leaf could change the answer, and none exists.

The independent oracle for dimensions up to 28 is Brouwer-Zimmermann
enumeration.  It takes s pairwise disjoint information sets of the
nullspace basis, greedily from the left, and enumerates the codewords of
message weight 1, 2, ... on each set in numpy chunks of parity words.  A
codeword missed through message weight w has at least w + 1 ones on each
set, and s*(w + 1) ones in all because the sets share no column, so the
oracle stops as soon as s*(w + 1) reaches the best weight found.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .matrices import NO_EDGE, DegreeMatrix, SparseParityCheck

# elements per broadcast block of the enumeration; a block's XOR temporary
# is 512 KB of uint64, so wider blocks only raise peak memory
_ENUM_BLOCK = 1 << 16

# nodes per block of the branch-and-bound stack; about depth blocks are live
_BNB_BLOCK = 2048

_ONE = np.uint64(1)


@dataclass(frozen=True)
class Distance:
    """``exact`` means value is d_min; otherwise d_min >= value is certified.
    ``nodes`` counts the tree nodes branch and bound expanded and ``pruned``
    the nodes its weight rule cut; neither takes part in ``==``."""

    value: int
    exact: bool
    nodes: int = field(default=0, compare=False)
    pruned: int = field(default=0, compare=False)

    def __str__(self) -> str:
        return str(self.value) if self.exact else f">= {self.value}"


def _column_tables(w: DegreeMatrix, m: int):
    """The word and the one-bit mask of each column's check bit in each
    block, two (cb, M*c) arrays: column t*c + j meets block i at check bit
    i*M + (t + w_ij) % M, and has mask 0 (word 0) where base row i misses
    base column j.  Then the (max row weight, cb*M) table of the columns
    covering each check bit, ascending down each column of the table and
    padded with -1."""
    cb, c = w.n_rows, w.n_cols
    present = w.entries != NO_EDGE
    t = np.arange(m)[:, None]
    bit = np.arange(cb)[:, None, None] * m + (t + w.entries[:, None, :]) % m
    has = present[:, None, :]
    word = np.where(has, bit // 64, 0).reshape(cb, m * c)
    mask = np.where(has, _ONE << (bit % 64).astype(np.uint64), 0).reshape(cb, m * c)
    hitters = np.full((int(present.sum(axis=1).max(initial=0)), cb * m), -1, dtype=np.int64)
    for i in range(cb):
        cols = np.flatnonzero(present[i])
        deg = w.entries[i, cols].astype(np.int64)
        hitters[:cols.size, i * m:(i + 1) * m] = np.sort((t - deg) % m * c + cols, axis=1).T
    return word, mask, hitters


def _resolve_code(code) -> DegreeMatrix:
    """The degree matrix, with modulus M, of a lift or of a pair (W, M)."""
    if isinstance(code, SparseParityCheck):
        if code.lift is None:
            raise ValueError("matrix is not a lift: pass a lift or (W, M)")
        return code.lift[0]
    w, m = code
    return DegreeMatrix(w.entries, modulus=m)


def _flipped(synd: np.ndarray, word: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Node-major syndromes ``synd`` (changed in place) with bit ``mask[i, j]``
    of word ``word[i, j]`` flipped in node j, block by block."""
    flat = synd.reshape(-1)
    at = np.arange(0, flat.size, synd.shape[1])  # each node's first word
    for i in range(word.shape[0]):  # two blocks can share a word, one node's bits cannot
        flat[word[i] + at] ^= mask[i]
    return synd


def _branch_and_bound(code, t: int) -> tuple[int, tuple[int, ...] | None, int, int]:
    """Smallest zero-sum column subset below t columns, with its support
    (tailbiting column indices), or (t, None) when none exists; then the
    nodes expanded and the nodes the weight rule cut."""
    if t < 2:
        raise ValueError("distance cap must be at least 2")
    w = _resolve_code(code)
    m, c = w.modulus, w.n_cols
    word, mask, hitters = _column_tables(w, m)
    width = hitters.shape[0]
    empty = ~mask[:, :c].any(axis=0)
    if empty.any():  # a column with no edge is a codeword of weight one
        return 1, (int(np.argmax(empty)),), 0, 0
    best, support = t, None
    nodes = pruned = 0
    # a weight never exceeds the depth, which stays below t
    dtype = np.min_scalar_type(t)
    # a block is (depth, node-major syndromes, block weights, paths, best
    # when pushed); its paths are a (depth, nodes) array of columns, roots in
    # row 0, in the narrowest signed type that holds every column index.  The
    # roots are the block-offset-zero columns 0..c-1.
    synd = _flipped(np.zeros((c, -(-w.n_rows * m // 64)), dtype=np.uint64),
                    word[:, :c], mask[:, :c])
    path = np.arange(c, dtype=np.min_scalar_type(-m * c))[None]
    stack = [(1, synd, (mask[:, :c] != 0).astype(dtype), path, best)]
    while stack:
        k, synd, weights, path, pushed_at = stack.pop()
        budget = best - 1 - k
        if budget <= 0:
            pruned += path.shape[1]
            continue
        if best != pushed_at:
            keep = np.flatnonzero(weights.max(axis=0) <= budget)
            pruned += path.shape[1] - keep.size
            synd, weights = synd.take(keep, axis=0), weights.take(keep, axis=1)
            path = path.take(keep, axis=1)
        size, nw = synd.shape
        nodes += size
        # the lowest set bit is the low bit of the first nonzero word, and
        # word ^ (word - 1) sets every bit up to and including it
        first = (synd != 0).argmax(axis=1)
        low = synd.ravel().take(np.arange(0, size * nw, nw) + first)
        cand = hitters.take(first * 64 + np.bitwise_count(low ^ (low - _ONE)) - 1, axis=1)
        # drop the table's padding (-1), which ``% c`` would read as base
        # column c - 1, columns of a base column below the root's, and then
        # columns on the path, root included; the compares run in the path's
        # narrow type, which is cheaper
        narrow = cand.astype(path.dtype)
        drop = (narrow < 0) | (narrow % c < path[0]) | (narrow == path[0])
        if k > 1:
            drop |= (narrow == path[1:, None]).any(axis=0)
        valid = np.flatnonzero(~drop.T)  # parent-major
        cand, par = cand.T.ravel().take(valid), valid // width
        # a column flips one bit in each block it meets, so a child's block
        # weight is its parent's plus one, or minus one where that bit is set
        kid_word, kid_mask = word.take(cand, axis=1), mask.take(cand, axis=1)
        on = (synd.ravel().take(kid_word + par * nw) & kid_mask) != 0
        kid_weights = weights.take(par, axis=1)
        kid_weights += kid_mask != 0
        kid_weights -= on
        kid_weights -= on
        heaviest = kid_weights.max(axis=0)
        if not heaviest.all():  # a zero child weighs 0 in every block
            first_zero = int(np.argmin(heaviest))
            best = k + 1
            support = tuple(sorted(path[:, par[first_zero]].tolist() + [int(cand[first_zero])]))
            pruned += cand.size - 1
            continue
        keep = np.flatnonzero(heaviest <= best - 2 - k)
        pruned += cand.size - keep.size
        for lo in range((keep.size - 1) // _BNB_BLOCK * _BNB_BLOCK, -1, -_BNB_BLOCK):
            sel = keep[lo:lo + _BNB_BLOCK]
            kid_par = par.take(sel)
            block = _flipped(synd.take(kid_par, axis=0), kid_word.take(sel, axis=1),
                             kid_mask.take(sel, axis=1))
            kid_path = np.empty((k + 1, sel.size), dtype=path.dtype)
            path.take(kid_par, axis=1, out=kid_path[:k])
            kid_path[k] = cand.take(sel)
            stack.append((k + 1, block, kid_weights.take(sel, axis=1), kid_path, best))
    return best, support, nodes, pruned


def min_distance_md(code: SparseParityCheck | tuple[DegreeMatrix, int], t: int) -> Distance:
    """Branch-and-bound distance of a lift, or of the pair (W, M) it lifts:
    exact d_min when d_min < t, else a certificate that d_min >= t."""
    best, _, nodes, pruned = _branch_and_bound(code, t)
    return Distance(best, best < t, nodes, pruned)


def min_weight_codeword(code: SparseParityCheck | tuple[DegreeMatrix, int],
                        t: int) -> tuple[Distance, tuple[int, ...] | None]:
    """Like :func:`min_distance_md` but also returns the witness support as
    column indices of the tailbiting layout (None for a lower bound)."""
    best, support, nodes, pruned = _branch_and_bound(code, t)
    return Distance(best, best < t, nodes, pruned), support


def min_distance_bruteforce(h: SparseParityCheck, max_dim: int = 28) -> int:
    """Exact d_min by Brouwer-Zimmermann enumeration over pairwise disjoint
    information sets.

    An information set is a set of k columns on which some basis of the
    code is the identity, so every codeword is the sum of the basis rows
    picked out by its k bits there, and weighs that message weight plus
    the weight of its n-k parity bits.  Set j is the pivots of one
    ``gf2.row_echelon`` of the nullspace basis with the columns no earlier
    set holds first, in column order; it counts only if all k pivots fall
    in those columns, and the first set short of full rank ends the list.
    (The basis is the identity on its free columns too, but on g08_k5,
    k = 28 of n = 65, the 37 columns those leave hold no information set,
    while the 37 that the leftmost set leaves do.)

    For w = 1, 2, ... every set enumerates its messages of weight w: each
    half of its basis becomes a word-major XOR table of parity words with
    its columns sorted by message weight, and the back rows of weight wb
    meet the front columns of weight w - wb by broadcasting, in blocks of
    about ``_ENUM_BLOCK`` elements.  After weight w, a codeword not yet
    seen has at least w + 1 ones on each of the s sets, and as the sets
    are disjoint those ones are distinct, so it weighs at least s*(w + 1).
    The walk stops once that reaches the best weight found (at first n,
    which no codeword exceeds), so the best is then d_min.  Sets sharing a
    column would count a one there once per set, and the bound would
    overstate what an unseen codeword weighs.  A dimension above
    ``max_dim`` raises ValueError before the basis is built."""
    basis = gf2.nullspace_basis(h.packed(), h.n_cols, max_dim=max_dim)
    k, n = basis.shape
    if k == 0:
        raise ValueError("code has no nonzero codewords")
    dtype = np.min_scalar_type(n)
    sets = []
    unused = np.ones(n, dtype=bool)
    while (spare := np.count_nonzero(unused)) >= k:
        order = np.concatenate((np.flatnonzero(unused), np.flatnonzero(~unused)))
        rref, pivots = gf2.row_echelon(gf2.pack_rows(basis[:, order]), spare)
        if len(pivots) < k:
            break
        sets.append(_info_set_tables(gf2.unpack_rows(rref, n), pivots))
        unused[order[pivots]] = False
    best, w = n, 0
    while len(sets) * (w + 1) < best:
        w += 1
        for front, front_cut, back, back_cut in sets:
            # a table of j message bits has j + 2 cuts
            for wb in range(max(0, w - front_cut.size + 2), min(w, back_cut.size - 2) + 1):
                cols = slice(front_cut[w - wb], front_cut[w - wb + 1])
                step = max(1, _ENUM_BLOCK // (cols.stop - cols.start))
                for b0 in range(back_cut[wb], back_cut[wb + 1], step):
                    rows = slice(b0, min(b0 + step, back_cut[wb + 1]))
                    weights = np.zeros((rows.stop - rows.start, cols.stop - cols.start), dtype)
                    for fw, bw in zip(front, back):
                        weights += np.bitwise_count(bw[rows, None] ^ fw[cols])
                    best = min(best, w + int(weights.min()))
    return best


def _info_set_tables(gen: np.ndarray, info) -> tuple[np.ndarray, ...]:
    """Front table, its cuts, back table and its cuts of a dense basis whose
    row i is the identity on the information set ``info``: rows 0..k//2
    make the front, the others the back."""
    parity = np.ones(gen.shape[1], dtype=bool)
    parity[info] = False
    words = gf2.pack_rows(gen[:, parity]).T
    half = gen.shape[0] // 2 + 1
    return (*_by_weight(_xor_table(words[:, :half])),
            *_by_weight(_xor_table(words[:, half:])))


def _by_weight(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An XOR table's columns in ascending message weight (the popcount of
    the column index), stable, and its cuts: columns cut[w] to cut[w + 1]
    are the messages of weight w, for w = 0 .. (bits in the index)."""
    wt = np.bitwise_count(np.arange(table.shape[1]))
    order = np.argsort(wt, kind="stable")
    bits = table.shape[1].bit_length() - 1
    # take keeps the table C-contiguous; table[:, order] comes out with
    # Fortran strides, which slow the inner loop
    return table.take(order, axis=1), np.searchsorted(wt[order], np.arange(bits + 2))


def _xor_table(columns: np.ndarray) -> np.ndarray:
    """All 2^j XOR combinations of the j columns of a (words, j) array, as a
    (words, 2^j) table whose column index has bit i set when column i is in."""
    table = np.zeros((columns.shape[0], 1), dtype=np.uint64)
    for i in range(columns.shape[1]):
        table = np.hstack([table, table ^ columns[:, i:i + 1]])
    return table

