"""Bundled catalog of known (J=3,K)-regular QC LDPC degree matrices with
certified girth, as reproduced from the published tables.

The corpus directory is the only copy: ``index.json`` maps each code's name
to its degree-matrix file (``M=`` line first) and its published parameters,
and :func:`load` reads both.  The index's ``family`` key names the base a
code was built on and is not read.

Every entry's girth is re-certified by the BFS oracle in the test suite.
Block lengths, all 57 dimensions, and small minimum distances are verified
against our own GF(2) rank and branch-and-bound engines.  Six published
values failed that audit and are corrected in the corpus; codeword supports
are column indices of the tailbiting lift:

- g06_k11: d_min 6, source prints 4; no two column pairs share a syndrome,
  so no four columns sum to zero (the K=11/K=12 pair appears swapped).
- g06_k12: d_min 4, source prints 6; columns (1, 10, 99, 102) sum to zero.
- g08_k11: d_min 6, source prints 8; columns (1, 8, 28, 32, 353, 361) sum
  to zero.
- g08_k4: dim 13, source prints 11; the lift has GF(2) rank 23.
- g10_k10: dim 3012, source prints 2912, below the n - M(c-b) floor of 3010.
- g08_k6_ld: n 432 = M*c, source prints 431; k = 218 verifies.

Dimensions come from the quasi-cyclic rank engine, cross-checked by dense
elimination up to n = 7000; the codes with n > 12384 (g12_k10-12, g14_k6,
g16_k5, g16_k6, g18_k4, g18_k5) are checked by the quasi-cyclic engine alone
and match as published.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .matrices import DegreeMatrix, parse_degree_matrix

CORPUS_DIR = Path(__file__).parent / "corpus"

_INT_KEYS = ("girth", "k", "m", "n", "dim")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    girth: int
    k: int       # row weight K
    m: int       # tailbiting length M
    n: int
    dim: int
    d_min: int | None
    degree: DegreeMatrix

    def degree_matrix(self) -> DegreeMatrix:
        return self.degree


def load(directory: Path) -> list[CatalogEntry]:
    """Read ``index.json`` and every degree-matrix file it names, in index
    order.  Raises ValueError naming the entry or file at fault."""
    try:
        index = json.loads((directory / "index.json").read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(str(exc)) from exc
    if not isinstance(index, dict):
        raise ValueError("index.json is not an object")
    return [_load_entry(directory, name, meta) for name, meta in index.items()]


def _load_entry(directory: Path, name: str, meta) -> CatalogEntry:
    if not (isinstance(meta, dict) and isinstance(meta.get("file"), str)
            and all(type(meta.get(key)) is int for key in _INT_KEYS)
            and "d_min" in meta and (meta["d_min"] is None or type(meta["d_min"]) is int)):
        raise ValueError(f"index entry {name!r} needs a file name, integer "
                         f"{', '.join(_INT_KEYS)} and an integer or null d_min")
    fname = meta["file"]
    try:
        w = parse_degree_matrix((directory / fname).read_bytes())
    except (OSError, ValueError) as exc:
        raise ValueError(f"{fname}: {exc}") from exc
    if w.modulus != meta["m"]:
        raise ValueError(f"{fname}: M={w.modulus}, but index entry {name!r} has m={meta['m']}")
    if meta["n"] != meta["m"] * w.n_cols:
        raise ValueError(f"index entry {name!r}: n={meta['n']} is not "
                         f"m x columns = {meta['m']} x {w.n_cols}")
    return CatalogEntry(name, meta["girth"], meta["k"], meta["m"], meta["n"],
                        meta["dim"], meta["d_min"], w)


CATALOG: list[CatalogEntry] = load(CORPUS_DIR)

BY_NAME = {entry.name: entry for entry in CATALOG}
