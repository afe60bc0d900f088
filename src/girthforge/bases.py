"""Base-matrix constructions: all-ones, Steiner triple systems, shortening,
and reuse of a lifted code as a new base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import BaseMatrix, SparseParityCheck


@dataclass(frozen=True)
class SteinerTripleSystem:
    """A Steiner triple system on points 0..order-1.

    ``triples`` is an ordered list: the order fixes the column order of the
    base matrix built from it, so canonical systems ship pre-ordered.
    """

    order: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        v = self.order
        if v % 6 not in (1, 3):
            raise ValueError(f"no Steiner triple system of order {v}")
        if len(self.triples) != v * (v - 1) // 6:
            raise ValueError("wrong number of triples")
        triples = tuple(tuple(sorted(t)) for t in self.triples)
        seen = set()
        for t in triples:
            if len(set(t)) != 3 or min(t) < 0 or max(t) >= v:
                raise ValueError(f"bad triple {t}")
            for pair in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
                if pair in seen:
                    raise ValueError(f"pair {pair} covered twice")
                seen.add(pair)
        if len(seen) != v * (v - 1) // 2:
            raise ValueError("pair coverage incomplete")
        object.__setattr__(self, "triples", triples)

    @property
    def replication(self) -> int:
        """Number of triples through each point, (v-1)/2."""
        return (self.order - 1) // 2


def parse_triples(text: str, order: int | None = None) -> SteinerTripleSystem:
    """Load a triple system from text: one triple of three integers per line."""
    triples = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"expected three integers per line, got {ln!r}")
        triples.append(tuple(int(p) for p in parts))
    if order is None:
        order = max(max(t) for t in triples) + 1
    return SteinerTripleSystem(order, tuple(triples))


# Canonical systems, in the column order their base matrices use.  STS(9) is
# stated on points 1..9 in the source material; stored 0-indexed here.
_STS9_TRIPLES = [
    (2, 3, 5), (1, 4, 6), (1, 3, 7), (2, 6, 7),
    (4, 5, 7), (1, 2, 8), (5, 6, 8), (3, 4, 8),
    (1, 5, 9), (2, 4, 9), (3, 6, 9), (7, 8, 9),
]

_STS13_TRIPLES = [
    (0, 3, 6), (0, 2, 7), (1, 5, 7), (3, 4, 7),
    (3, 5, 8), (1, 4, 8), (2, 6, 8), (2, 4, 9),
    (5, 6, 9), (0, 1, 9), (1, 3, 10), (0, 4, 10),
    (6, 7, 10), (2, 5, 10), (8, 9, 10), (7, 8, 11),
    (4, 6, 11), (1, 2, 11), (0, 5, 11), (3, 9, 11),
    (10, 11, 12), (7, 9, 12), (0, 8, 12), (1, 6, 12),
    (4, 5, 12), (2, 3, 12),
]

_STS25_TRIPLES = [
    (4, 5, 10), (1, 9, 10), (7, 8, 11), (1, 6, 11),
    (2, 3, 12), (0, 9, 12), (6, 8, 12), (8, 9, 13),
    (6, 7, 13), (0, 5, 13), (2, 10, 13), (3, 4, 14),
    (1, 12, 14), (0, 2, 14), (7, 9, 14), (5, 11, 14),
    (5, 6, 15), (3, 10, 15), (4, 12, 15), (1, 7, 15),
    (0, 8, 15), (11, 13, 16), (5, 7, 16), (6, 10, 16),
    (2, 8, 16), (3, 9, 16), (0, 4, 16), (9, 11, 17),
    (12, 13, 17), (1, 3, 17), (4, 7, 17), (0, 6, 17),
    (2, 5, 17), (8, 17, 18), (3, 11, 18), (2, 4, 18),
    (13, 15, 18), (0, 10, 18), (1, 16, 18), (6, 14, 18),
    (9, 18, 19), (4, 8, 19), (14, 15, 19), (10, 11, 19),
    (0, 3, 19), (2, 7, 19), (12, 16, 19), (1, 5, 19),
    (17, 19, 20), (9, 15, 20), (10, 12, 20), (0, 11, 20),
    (5, 8, 20), (1, 4, 20), (13, 14, 20), (3, 7, 20),
    (2, 6, 20), (5, 18, 21), (4, 6, 21), (1, 13, 21),
    (16, 17, 21), (10, 14, 21), (2, 9, 21), (3, 8, 21),
    (11, 15, 21), (7, 12, 21), (19, 21, 22), (18, 20, 22),
    (0, 7, 22), (10, 17, 22), (3, 5, 22), (6, 9, 22),
    (2, 15, 22), (1, 8, 22), (11, 12, 22), (4, 13, 22),
    (14, 16, 22), (20, 21, 23), (0, 1, 23), (6, 19, 23),
    (15, 16, 23), (2, 11, 23), (7, 18, 23), (5, 12, 23),
    (14, 17, 23), (4, 9, 23), (8, 10, 23), (3, 13, 23),
    (0, 21, 24), (22, 23, 24), (1, 2, 24), (16, 20, 24),
    (7, 10, 24), (8, 14, 24), (13, 19, 24), (3, 6, 24),
    (12, 18, 24), (15, 17, 24), (5, 9, 24), (4, 11, 24),
]

CANONICAL_STS = {
    9: SteinerTripleSystem(9, tuple((a - 1, b - 1, c - 1) for a, b, c in _STS9_TRIPLES)),
    13: SteinerTripleSystem(13, tuple(_STS13_TRIPLES)),
    25: SteinerTripleSystem(25, tuple(_STS25_TRIPLES)),
}


def all_ones_base(j: int, k: int) -> BaseMatrix:
    """The j x k all-ones base matrix, tagged (j, k)-regular."""
    if j < 2 or k < 2:
        raise ValueError("need j >= 2 and k >= 2")
    return BaseMatrix(np.ones((j, k), dtype=np.uint8), regularity=(j, k))


def sts_base(sts: SteinerTripleSystem) -> BaseMatrix:
    """Base matrix whose column i has ones at the rows named by triple i.

    The triple order is taken as given; canonical systems are already in the
    layout that concentrates zeros in the lower left (see
    :func:`order_triples` for reordering a freshly generated system).
    """
    entries = np.zeros((sts.order, len(sts.triples)), dtype=np.uint8)
    for col, triple in enumerate(sts.triples):
        for point in triple:
            entries[point, col] = 1
    return BaseMatrix(entries, regularity=(3, sts.replication))


def order_triples(sts: SteinerTripleSystem) -> SteinerTripleSystem:
    """Reorder triples bottom row first so zeros concentrate in the lower left.

    Triples through the highest unplaced point are assigned to the rightmost
    free columns, lexicographically smallest leftmost.  This reproduces the
    block structure of the canonical systems (each row's ones end flush at
    the right), though not necessarily their exact within-row column order.
    """
    placed: list[tuple[int, int, int]] = []
    remaining = set(sts.triples)
    for point in range(sts.order - 1, -1, -1):
        group = sorted(t for t in remaining if point in t)
        remaining -= set(group)
        placed = group + placed
    return SteinerTripleSystem(sts.order, tuple(placed))


def shorten_sts_base(b: BaseMatrix, k: int) -> BaseMatrix:
    """Drop the last row and last k columns of an STS base matrix.

    Turns a (3, k)-regular matrix into a (3, k-1)-regular one; requires the
    last row's ones to sit exactly in the last k columns (the STS layout).
    """
    entries = b.entries
    last = np.nonzero(entries[-1])[0]
    if len(last) != k or not np.array_equal(last, np.arange(b.n_cols - k, b.n_cols)):
        raise ValueError("matrix is not in STS layout with row weight k")
    return BaseMatrix(entries[:-1, : b.n_cols - k], regularity=(3, k - 1))


def zero_voltage_mask(b: BaseMatrix) -> set[tuple[int, int]]:
    """Edge positions that can be fixed to voltage zero without loss.

    The last nonzero entry of every column, plus the first nonzero entry of
    each row that received no such entry; on an all-ones base that is the
    whole first column and last row.  The mask zeroes one edge per vertex
    along a spanning forest, so any assignment can be shifted onto it.
    """
    entries = b.entries
    mask = {(int(np.nonzero(col)[0][-1]), j) for j, col in enumerate(entries.T) if col.any()}
    rows_hit = {r for r, _ in mask}
    return mask | {(i, int(np.nonzero(row)[0][0])) for i, row in enumerate(entries)
                   if i not in rows_hit and row.any()}


def base_from_code(h: SparseParityCheck) -> BaseMatrix:
    """Reinterpret a lifted parity-check matrix as a base matrix (Case 2-II)."""
    return BaseMatrix(h.to_dense())
