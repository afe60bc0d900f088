"""Core matrix types: base matrices, degree matrices, sparse parity checks.

Binary vectors are plain numpy uint8 arrays (or python int bitsets inside
the hot loops); the structured types below carry the validation that the
rest of the package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import gf2

#: Sentinel for "no edge" entries of a degree matrix.  Distinct from degree 0:
#: a zero degree is an edge labeled with the identity shift, NO_EDGE is an
#: all-zero block after lifting.
NO_EDGE = -1

TAILBITING = "tailbiting"
CIRCULANT = "circulant"
GENERIC = "generic"


class FormatError(ValueError):
    """Raised on malformed degree-matrix or alist text."""


@dataclass(frozen=True)
class BaseMatrix:
    """Binary biadjacency matrix of a base (proto) graph.

    Rows are constraint nodes, columns are symbol nodes.  ``regularity``
    optionally tags the matrix as (J, K)-regular, which is then enforced.
    """

    entries: np.ndarray
    regularity: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.uint8)
        if entries.ndim != 2:
            raise ValueError("base matrix must be two-dimensional")
        if not np.isin(entries, (0, 1)).all():
            raise ValueError("base matrix entries must be 0 or 1")
        if entries.shape[0] < 1 or entries.shape[1] < 2:
            raise ValueError("base matrix needs at least 1 row and 2 columns")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if self.regularity is not None:
            j, k = self.regularity
            if not (entries.sum(axis=0) == j).all():
                raise ValueError(f"column weights are not all {j}")
            if not (entries.sum(axis=1) == k).all():
                raise ValueError(f"row weights are not all {k}")

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    def edges(self) -> list[tuple[int, int]]:
        """(row, col) positions of ones, row-major order."""
        rr, cc = np.nonzero(self.entries)
        return list(zip(rr.tolist(), cc.tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, BaseMatrix) and np.array_equal(self.entries, other.entries)

    def __hash__(self) -> int:
        return hash(self.entries.tobytes())


@dataclass(frozen=True)
class DegreeMatrix:
    """Per-edge shift degrees; ``NO_EDGE`` marks structural zeros.

    When ``modulus`` is set every degree must already be reduced mod M.
    """

    entries: np.ndarray
    modulus: int | None = None

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.int64)
        if entries.ndim != 2:
            raise ValueError("degree matrix must be two-dimensional")
        if ((entries < 0) & (entries != NO_EDGE)).any():
            raise ValueError("degrees must be non-negative or NO_EDGE")
        if self.modulus is not None:
            if self.modulus < 1:
                raise ValueError("modulus must be positive")
            if (entries >= self.modulus).any():
                raise ValueError(f"degree >= modulus M={self.modulus}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    @property
    def max_degree(self) -> int:
        degs = self.entries[self.entries != NO_EDGE]
        return int(degs.max()) if degs.size else 0

    def base(self) -> BaseMatrix:
        """Base matrix obtained by dropping the degrees."""
        return BaseMatrix((self.entries != NO_EDGE).astype(np.uint8))

    def has_no_edge(self) -> bool:
        return bool((self.entries == NO_EDGE).any())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DegreeMatrix)
            and self.modulus == other.modulus
            and np.array_equal(self.entries, other.entries)
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.entries.tobytes()))


@dataclass(frozen=True)
class QCBlock:
    """Block metadata of a lifted matrix: circulant size and base shape."""

    m: int
    c: int
    cb: int  # number of base rows, i.e. c - b


@dataclass(frozen=True)
class SparseParityCheck:
    """Sparse binary matrix stored as sorted column-index lists per row."""

    n_rows: int
    n_cols: int
    rows: tuple[tuple[int, ...], ...]
    layout: str = GENERIC
    block: QCBlock | None = None

    def __post_init__(self) -> None:
        if len(self.rows) != self.n_rows:
            raise ValueError("row count mismatch")
        for cols in self.rows:
            if any(c < 0 or c >= self.n_cols for c in cols):
                raise ValueError("column index out of range")
            if any(a >= b for a, b in zip(cols, cols[1:])):
                raise ValueError("column indices must be strictly increasing")
        if self.layout not in (TAILBITING, CIRCULANT, GENERIC):
            raise ValueError(f"unknown layout {self.layout!r}")

    @classmethod
    def from_dense(cls, dense: np.ndarray, layout: str = GENERIC,
                   block: QCBlock | None = None) -> "SparseParityCheck":
        dense = np.asarray(dense)
        rows = tuple(tuple(np.nonzero(row)[0].tolist()) for row in dense)
        return cls(dense.shape[0], dense.shape[1], rows, layout, block)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.uint8)
        for r, cols in enumerate(self.rows):
            out[r, list(cols)] = 1
        return out

    def column_lists(self) -> list[list[int]]:
        """Per-column sorted row-index lists."""
        cols: list[list[int]] = [[] for _ in range(self.n_cols)]
        for r, row in enumerate(self.rows):
            for c in row:
                cols[c].append(r)
        return cols

    def row_weights(self) -> list[int]:
        return [len(r) for r in self.rows]

    @property
    def n_edges(self) -> int:
        return sum(len(r) for r in self.rows)

    def packed(self) -> np.ndarray:
        """Bit-packed uint64 row representation (see :mod:`girthforge.gf2`)."""
        n_words = max(1, (self.n_cols + 63) // 64)
        out = np.zeros((self.n_rows, n_words), dtype=np.uint64)
        one = np.uint64(1)
        for r, cols in enumerate(self.rows):
            for c in cols:
                w, b = divmod(c, 64)
                out[r, w] ^= one << np.uint64(b)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseParityCheck)
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n_rows, self.n_cols, self.rows))


def gf2_rank(h: SparseParityCheck) -> int:
    """Rank of the matrix over GF(2); code dimension is n_cols - rank.

    A tailbiting or circulant lift is ranked from its recovered degree matrix
    by :func:`gf2.qc_rank`; any other matrix, including one whose block
    metadata does not match its rows, by dense elimination.
    """
    if h.block is not None:
        from .lifting import degree_matrix_of_lift
        try:
            w, m = degree_matrix_of_lift(h)
        except ValueError:
            pass
        else:
            return gf2.qc_rank(w.entries, m)
    return gf2.rank(h.packed(), h.n_cols)


# ---------------------------------------------------------------------------
# Degree-matrix text format:
#   optional "M=<int>" line, then one whitespace-separated line per base row;
#   tokens are non-negative integers or "-" for NO_EDGE.
# ---------------------------------------------------------------------------

def emit_degree_matrix(w: DegreeMatrix) -> str:
    lines = []
    if w.modulus is not None:
        lines.append(f"M={w.modulus}")
    for row in w.entries:
        lines.append(" ".join("-" if v == NO_EDGE else str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def _ascii_text(text: str | bytes) -> str:
    if isinstance(text, bytes):
        try:
            return text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"text is not ASCII: {exc}") from exc
    return text


def parse_degree_matrix(text: str | bytes) -> DegreeMatrix:
    text = _ascii_text(text)
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty degree matrix")
    modulus = None
    if lines[0].upper().startswith("M="):
        try:
            modulus = int(lines[0][2:])
        except ValueError as exc:
            raise FormatError(f"bad modulus line {lines[0]!r}") from exc
        if modulus < 1:
            raise FormatError(f"modulus M={modulus} is not positive")
        lines = lines[1:]
    rows = []
    width = None
    for ln in lines:
        row = []
        for tok in ln.split():
            if tok == "-":
                row.append(NO_EDGE)
            else:
                try:
                    val = int(tok)
                except ValueError as exc:
                    raise FormatError(f"bad token {tok!r}") from exc
                if val < 0:
                    raise FormatError(f"negative degree {val}")
                row.append(val)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(f"row length {len(row)} != {width}")
        rows.append(row)
    entries = np.array(rows, dtype=np.int64)
    if modulus is not None and (entries >= modulus).any():
        raise FormatError(f"degree >= M={modulus}")
    return DegreeMatrix(entries, modulus=modulus)


# ---------------------------------------------------------------------------
# alist serialization (MacKay-style, 1-indexed):
#   line 1: n_cols n_rows
#   line 2: max column weight, max row weight
#   line 3: column weights;  line 4: row weights
#   then one line per column (row indices), one line per row (col indices)
# ---------------------------------------------------------------------------

def emit_alist(h: SparseParityCheck) -> str:
    cols = h.column_lists()
    col_w = [len(c) for c in cols]
    row_w = h.row_weights()
    lines = [
        f"{h.n_cols} {h.n_rows}",
        f"{max(col_w, default=0)} {max(row_w, default=0)}",
        " ".join(map(str, col_w)),
        " ".join(map(str, row_w)),
    ]
    for c in cols:
        lines.append(" ".join(str(r + 1) for r in c))
    for row in h.rows:
        lines.append(" ".join(str(c + 1) for c in row))
    return "\n".join(lines) + "\n"


def parse_alist(text: str | bytes) -> SparseParityCheck:
    text = _ascii_text(text)
    # keep interior blank lines: a zero-weight column is an empty list line
    lines = [s.strip() for s in text.splitlines()]
    if len(lines) < 4:
        raise FormatError("alist too short")
    try:
        n_cols, n_rows = map(int, lines[0].split())
        col_w = list(map(int, lines[2].split()))
        row_w = list(map(int, lines[3].split()))
    except ValueError as exc:
        raise FormatError("bad alist header") from exc
    if len(col_w) != n_cols or len(row_w) != n_rows:
        raise FormatError("alist weight lines do not match dimensions")
    body = lines[4:]
    if len(body) < n_cols + n_rows or any(body[n_cols + n_rows:]):
        raise FormatError("alist body does not match dimensions")
    try:
        lists = [[int(t) for t in ln.split()] for ln in body[: n_cols + n_rows]]
    except ValueError as exc:
        raise FormatError("bad token in alist body") from exc
    rows: list[list[int]] = [[] for _ in range(n_rows)]
    for c, tokens in enumerate(lists[:n_cols]):
        # Some writers zero-pad entries; ignore padding zeros.
        entries = [t for t in tokens if t != 0]
        if len(entries) != col_w[c]:
            raise FormatError(f"column {c + 1} weight mismatch")
        for r in entries:
            if not (1 <= r <= n_rows):
                raise FormatError(f"row index {r} out of range")
            rows[r - 1].append(c)
    for r, tokens in enumerate(lists[n_cols:]):
        entries = sorted(t - 1 for t in tokens if t != 0)
        if entries != rows[r]:
            raise FormatError(f"row {r + 1} list inconsistent with column lists")
    return SparseParityCheck(n_rows, n_cols, tuple(tuple(sorted(r)) for r in rows))
