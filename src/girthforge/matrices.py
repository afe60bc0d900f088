"""Core matrix types: base matrices, degree matrices, CSR sparse parity checks.

Binary vectors are plain numpy uint8 arrays (or python int bitsets inside
the hot loops); the structured types below carry the validation that the
rest of the package relies on.  Their arrays are read-only, and a type never
freezes an array its caller can still write: it copies that one.  A
tailbiting or circulant lift also carries the degree matrix and layout it
was built from (``SparseParityCheck.lift``); only the lifts of
:mod:`girthforge.lifting` set it, so no edited matrix keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2

#: Sentinel for "no edge" entries of a degree matrix.  Distinct from degree 0:
#: a zero degree is an edge labeled with the identity shift, NO_EDGE is an
#: all-zero block after lifting.
NO_EDGE = -1

TAILBITING = "tailbiting"
CIRCULANT = "circulant"


class FormatError(ValueError):
    """Raised on malformed degree-matrix or alist text."""


def _frozen(value, dtype) -> np.ndarray:
    """``value`` as a read-only ``dtype`` array.  Unless numpy made a fresh
    array for it, it is copied when its memory can still be written: when
    the end of its ``.base`` chain is writeable or is not a numpy array.
    So the caller keeps writing to its own arrays, even through a read-only
    view, and no write reaches the matrix."""
    arr = np.asarray(value, dtype=dtype)
    if arr is value or arr.base is not None:
        end = arr
        while isinstance(end.base, np.ndarray):
            end = end.base
        if end.flags.writeable or end.base is not None:
            arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _is_integer(x) -> bool:
    """True for Python and numpy integers; False for bools, floats and the rest."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _valid_modulus(modulus) -> int:
    if not _is_integer(modulus):
        raise ValueError(f"modulus must be an integer, not {modulus!r}")
    if modulus < 1:
        raise ValueError("modulus must be at least 1")
    return int(modulus)


@dataclass(frozen=True)
class BaseMatrix:
    """Binary biadjacency matrix of a base (proto) graph.

    Rows are constraint nodes, columns are symbol nodes.  ``regularity``
    optionally tags the matrix as (J, K)-regular, which is then enforced.
    """

    entries: np.ndarray
    regularity: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        entries = _frozen(self.entries, np.uint8)
        if entries.ndim != 2:
            raise ValueError("base matrix must be two-dimensional")
        if not np.isin(entries, (0, 1)).all():
            raise ValueError("base matrix entries must be 0 or 1")
        if entries.shape[0] < 1 or entries.shape[1] < 2:
            raise ValueError("base matrix needs at least 1 row and 2 columns")
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

    When ``modulus`` is set it is the tailbiting length M, an integer of at
    least 1, and every degree must already be reduced mod M.  This is the
    one place that rule is checked: a lift, a distance call on ``(W, M)``
    and the text parser all build a ``DegreeMatrix`` with that modulus.
    """

    entries: np.ndarray
    modulus: int | None = None

    def __post_init__(self) -> None:
        entries = _frozen(self.entries, np.int64)
        if entries.ndim != 2:
            raise ValueError("degree matrix must be two-dimensional")
        if ((entries < 0) & (entries != NO_EDGE)).any():
            raise ValueError("degrees must be non-negative or NO_EDGE")
        if self.modulus is not None:
            object.__setattr__(self, "modulus", _valid_modulus(self.modulus))
            if (entries >= self.modulus).any():
                raise ValueError(f"degree >= modulus M={self.modulus}")
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


_DECODE_BLOCK = 1 << 16  # sorted keys decoded per step of csr_from_pairs


def csr_from_pairs(n_rows: int, n_cols: int, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of distinct ones at ``(rows, cols)``, integer
    arrays of one shape in any order, by one in-place sort of the int64 keys
    ``row * n_cols + col``.

    The keys are built and sorted in place, then decoded into the column
    indices block by block, each block's sorted rows counted into the row
    lengths.  The key array is returned as ``indices``, and no other
    temporary is longer than a block."""
    keys = np.multiply(rows, n_cols, dtype=np.int64)
    keys += cols
    keys = keys.ravel()
    keys.sort()
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    for lo in range(0, keys.size, _DECODE_BLOCK):
        block = keys[lo:lo + _DECODE_BLOCK]
        row = block // n_cols  # nondecreasing: a block spans rows row[0]..row[-1]
        indptr[row[0] + 1:row[-1] + 2] += np.bincount(row - row[0])
        row *= n_cols
        block -= row  # now the columns
    return np.cumsum(indptr, out=indptr), keys


@dataclass(frozen=True)
class SparseParityCheck:
    """Sparse binary matrix in CSR form: row r has its ones at the strictly
    increasing columns ``indices[indptr[r]:indptr[r + 1]]`` (read-only int64).
    Validation compares neighbouring indices within each row, and lifts emit
    their rows already in order.  A transpose sorts one int64 key per one in
    place (:func:`csr_from_pairs`), so beside its output it holds one int64
    temporary as long as ``indices``, the row of each one, and ``n_rows *
    n_cols`` must be below ``2**63``.

    ``lift`` is ``(degree matrix, layout)`` on a tailbiting or circulant lift,
    the degree matrix's modulus being the lift's M, and None on any other
    matrix.  No constructor argument sets it and ``dataclasses.replace``
    drops it: only the lifts attach it, through :func:`_adopt`."""

    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    lift: tuple[DegreeMatrix, str] | None = field(default=None, init=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("indptr", "indices"):
            object.__setattr__(self, name, _frozen(getattr(self, name), np.int64))
        indptr, indices = self.indptr, self.indices
        if (indptr.ndim != 1 or indices.ndim != 1 or indptr.size == 0 or indptr[0] != 0
                or (np.diff(indptr) < 0).any() or indptr[-1] != indices.size):
            raise ValueError("row count mismatch: indptr must run from 0 up to indices.size")
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_cols):
            raise ValueError("column index out of range")
        if self.n_rows * int(self.n_cols) >= 2**63:  # a Python int: no wrap-around
            raise ValueError("n_rows * n_cols must be below 2**63")
        # compare each one with the one before it, except where a row starts
        not_rising = indices[1:] <= indices[:-1]
        row_starts = indptr[1:-1]
        not_rising[row_starts[(row_starts > 0) & (row_starts < indices.size)] - 1] = False
        if not_rising.any():
            raise ValueError("column indices must be strictly increasing")

    @property
    def n_rows(self) -> int:
        return self.indptr.size - 1

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseParityCheck":
        dense = np.asarray(dense)
        rows, cols = np.nonzero(dense)
        return _adopt(dense.shape[1], np.searchsorted(rows, np.arange(dense.shape[0] + 1)), cols)

    def _row_ids(self) -> np.ndarray:
        """Row index of every stored one, aligned with ``indices``."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    def transpose(self) -> "SparseParityCheck":
        """The transposed matrix: its rows list each column's row indices."""
        return _adopt(self.n_rows, *csr_from_pairs(
            self.n_cols, self.n_rows, self.indices, self._row_ids()))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.uint8)
        out[self._row_ids(), self.indices] = 1
        return out

    def packed(self) -> np.ndarray:
        """Bit-packed uint64 row representation (see :mod:`girthforge.gf2`)."""
        out = np.zeros((self.n_rows, max(1, (self.n_cols + 63) // 64)), dtype=np.uint64)
        bits = np.left_shift(np.uint64(1), (self.indices & 63).astype(np.uint64))
        np.bitwise_or.at(out, (self._row_ids(), self.indices >> 6), bits)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseParityCheck)
            and self.n_cols == other.n_cols
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.n_cols, self.indptr.tobytes(), self.indices.tobytes()))


def _adopt(n_cols: int, indptr: np.ndarray, indices: np.ndarray,
           lift: tuple[DegreeMatrix, str] | None = None) -> SparseParityCheck:
    """The matrix over CSR arrays that the caller made and hands over: they
    are frozen in place with every array they view, not copied.  Only a
    lift passes ``lift``."""
    for arr in (indptr, indices):
        while isinstance(arr, np.ndarray):
            arr.setflags(write=False)
            arr = arr.base
    h = SparseParityCheck(n_cols, indptr, indices)
    object.__setattr__(h, "lift", lift)
    return h


def gf2_rank(h: SparseParityCheck) -> int:
    """Rank of the matrix over GF(2); code dimension is n_cols - rank.

    A tailbiting or circulant lift is ranked from the degree matrix it
    carries by :func:`gf2.qc_rank`; any other matrix by dense elimination.
    """
    if h.lift is not None:
        w, _ = h.lift
        return gf2.qc_rank(w.entries, w.modulus)
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
    modulus = None
    if lines and lines[0].upper().startswith("M="):
        try:
            modulus = int(lines[0][2:])
        except ValueError as exc:
            raise FormatError(f"bad modulus line {lines[0]!r}") from exc
        lines = lines[1:]
    if not lines:
        raise FormatError("empty degree matrix")
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
    try:
        return DegreeMatrix(np.array(rows, dtype=np.int64), modulus=modulus)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# alist serialization (MacKay-style, 1-indexed):
#   line 1: n_cols n_rows
#   line 2: max column weight, max row weight
#   line 3: column weights;  line 4: row weights
#   then one line per column (row indices), one line per row (col indices)
# ---------------------------------------------------------------------------

def emit_alist(h: SparseParityCheck) -> str:
    h_t = h.transpose()
    col_w, row_w = np.diff(h_t.indptr).tolist(), np.diff(h.indptr).tolist()
    lines = [
        f"{h.n_cols} {h.n_rows}",
        f"{max(col_w, default=0)} {max(row_w, default=0)}",
        " ".join(map(str, col_w)),
        " ".join(map(str, row_w)),
    ]
    for side in (h_t, h):  # column lists, then row lists, 1-based
        ptr, idx = side.indptr.tolist(), (side.indices + 1).tolist()
        lines += [" ".join(map(str, idx[a:b])) for a, b in zip(ptr[:-1], ptr[1:])]
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
        # Some writers zero-pad entries; ignore padding zeros.
        lists = [[t for t in map(int, ln.split()) if t != 0]
                 for ln in body[: n_cols + n_rows]]
    except ValueError as exc:
        raise FormatError("bad token in alist body") from exc
    for c, entries in enumerate(lists[:n_cols]):
        if len(entries) != col_w[c]:
            raise FormatError(f"column {c + 1} weight mismatch")
    try:  # the column lists are the rows of the transpose
        h = SparseParityCheck(n_rows, np.cumsum([0] + col_w), [
            r - 1 for entries in lists[:n_cols] for r in sorted(entries)]).transpose()
    except (ValueError, OverflowError) as exc:
        raise FormatError("a column list holds a row index out of range or twice") from exc
    ptr, idx = h.indptr.tolist(), h.indices.tolist()
    for r, entries in enumerate(lists[n_cols:]):
        if sorted(t - 1 for t in entries) != idx[ptr[r]:ptr[r + 1]]:
            raise FormatError(f"row {r + 1} list inconsistent with column lists")
    return h
