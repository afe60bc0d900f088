"""Voltage-assignment search: a random sweep over M, column extension and an
exhaustive scan of 3 x k all-ones bases.

Every mode draws from the space ``_restricted_edges`` derives from the base
(its zero mask pinned; on an all-ones base the first row also sorted), and
the random sweep and column extension share one sampler,
``sample_assignment``, and one M sweep, ``_sweeps``.  Every mode starts at
the M ``_first_m`` gives, never below ``bounds.lift_floor``, the smallest M
at which a lift of the base can reach the target girth.

Each mode is a generator that yields ``(tried, hit)`` per block of
assignments: ``tried`` counts the block's rows and ``hit`` is ``(values, M)``
for its first accepted row, or None.  One driver, ``_drive``, sums the
attempts, stops at a hit, at the generator's end or at the first block past
the deadline, BFS-certifies the hit and builds the ``SearchResult``.  Every
mode accepts through ``GirthSystem.check_batch``, so ``attempts`` is the
number of rows checked.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass, asdict
from functools import partial

import numpy as np

from .bases import (CANONICAL_STS, all_ones_base, base_from_code, shorten_sts_base, sts_base,
                    zero_voltage_mask)
from .bounds import lift_floor, theorem3_applies
from .girth import GirthSystem, certified_girth
from .lifting import lift_tailbiting
from .matrices import NO_EDGE, BaseMatrix, DegreeMatrix, FormatError, parse_degree_matrix


class InfeasibleTarget(Exception):
    """Target girth exceeds a structural bound of the base matrix, or no M
    up to ``m_max`` is left to search."""


class TimeBudgetExceeded(Exception):
    """Search budget ran out before a certified result was found."""


@dataclass
class SearchConfig:
    base: dict
    girth: int
    m_max: int
    m_min: int | None = None
    seed: int = 0
    budget_secs: float = 60.0
    attempts_per_m: int = 4096
    jobs: int = 1

    def __post_init__(self) -> None:
        for name, lo in (("girth", 4), ("m_max", 1), ("m_min", 1), ("attempts_per_m", 1),
                         ("jobs", 1), ("seed", 0)):
            value = getattr(self, name)
            if (value is not None or name != "m_min") and not (type(value) is int and value >= lo):
                raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")
        if self.girth % 2:
            raise ValueError(f"girth must be even, got {self.girth}")
        if self.m_min is not None and self.m_min > self.m_max:
            raise ValueError(f"m_min={self.m_min} is above m_max={self.m_max}")
        if type(self.budget_secs) not in (int, float) or not self.budget_secs > 0:
            raise ValueError(f"budget_secs must be a positive number, got {self.budget_secs!r}")

    @classmethod
    def from_json(cls, text: str) -> "SearchConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("search config must be a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


@dataclass(frozen=True)
class SearchResult:
    degree: DegreeMatrix
    m: int
    girth: int           # oracle-certified
    seed: int
    attempts: int


def resolve_base(spec: dict) -> BaseMatrix:
    """Build the base matrix named by a config's ``base`` entry."""
    if not isinstance(spec, dict):
        raise ValueError(f"base must be an object, got {spec!r}")
    kind = spec.get("kind", "all_ones")
    if kind in ("sts", "shortened_sts") and spec.get("order") not in list(CANONICAL_STS):
        raise ValueError(f"no canonical triple system of order {spec.get('order')!r}; "
                         f"known orders: {sorted(CANONICAL_STS)}")
    if kind == "all_ones":
        j, k = spec.get("j", 3), spec.get("k")
        if type(j) is not int or type(k) is not int:
            raise ValueError(f"all_ones base needs integers j and k, got j={j!r}, k={k!r}")
        return all_ones_base(j, k)
    if kind == "sts":
        return sts_base(CANONICAL_STS[spec["order"]])
    if kind == "shortened_sts":
        sts = CANONICAL_STS[spec["order"]]
        return shorten_sts_base(sts_base(sts), sts.replication)
    if kind == "code":
        if type(spec.get("path")) is not str:
            raise ValueError(f"code base needs a string path, got {spec.get('path')!r}")
        with open(spec["path"], "rb") as fh:
            w = parse_degree_matrix(fh.read())
        if w.modulus is None:
            raise FormatError("code base needs a degree matrix with modulus")
        return base_from_code(lift_tailbiting(w, w.modulus))
    raise ValueError(f"unknown base kind {kind!r}")


def _restricted_edges(base: BaseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids pinned to zero, and the unpinned first-row edge ids sorted
    ascending: the search space every mode draws from.

    The pinned edges are ``zero_voltage_mask(base)``, a spanning forest.
    Adding one constant to every voltage at a vertex gives an isomorphic
    lift, so any assignment can be moved onto zeros there without loss.  The
    first row is sorted only on an all-ones base, whose columns after the
    first can be permuted without changing the base or its mask; other bases
    lack that symmetry, and sorting there would lose codes.
    """
    edges = base.edges()
    mask = zero_voltage_mask(base)
    sort_first_row = base.entries.all()
    masked = [e for e, pos in enumerate(edges) if pos in mask]
    free = [e for e, pos in enumerate(edges)
            if sort_first_row and pos[0] == 0 and pos not in mask]
    return np.array(masked, dtype=np.int64), np.array(free, dtype=np.int64)


def sample_assignment(base: BaseMatrix, rng: np.random.Generator, high: int,
                      size: int = 1, *,
                      edges: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Sample a (size, n_edges) block of voltage assignments in [0, high)
    from the space of ``_restricted_edges(base)``.

    ``edges`` is (pinned edges, edges sorted ascending), by default
    ``_restricted_edges(base)``; callers that sample many blocks pass it so
    that it is not recomputed for each one.
    """
    masked, free = edges if edges is not None else _restricted_edges(base)
    n_edges = int(base.entries.sum())
    values = rng.integers(0, high, size=(size, n_edges), dtype=np.int64)
    values[:, masked] = 0
    if free.size:
        values[:, free] = np.sort(values[:, free], axis=1)
    return values


def assignment_to_degree_matrix(base: BaseMatrix, values: np.ndarray,
                                modulus: int) -> DegreeMatrix:
    entries = np.full(base.entries.shape, NO_EDGE, dtype=np.int64)
    entries[base.entries != 0] = np.asarray(values, dtype=np.int64) % modulus
    return DegreeMatrix(entries, modulus=modulus)


def degree_matrix_to_assignment(w: DegreeMatrix) -> np.ndarray:
    return w.entries[w.entries != NO_EDGE].astype(np.int64)


def _certify(system: GirthSystem, w: DegreeMatrix) -> int:
    """BFS-certify a degree matrix the checker accepted at its modulus M.

    Returns the oracle girth of the lifted graph, or the target girth when no
    cycle lies within the oracle cap.  An oracle girth below the target means
    the checker and the oracle disagree, which raises.
    """
    g_cert = certified_girth(lift_tailbiting(w, w.modulus), cap=max(32, system.g + 2))
    if g_cert is None:
        return system.g
    if g_cert < system.g:
        raise AssertionError(
            f"oracle girth {g_cert} below target {system.g} at M={w.modulus}: "
            f"checker and BFS oracle disagree")
    return g_cert


def _first_m(base: BaseMatrix, g: int, m_lo: int, m_max: int) -> int:
    """The first M a search of ``base`` for girth g sweeps: ``m_lo`` or the
    base's ``lift_floor``, whichever is larger.  Raises InfeasibleTarget when
    Theorem 3 caps the base's girth below g or that M lies above ``m_max``."""
    if g > 12 and theorem3_applies(base):
        raise InfeasibleTarget(
            f"base contains a 2x3 all-ones submatrix, so girth is capped at 12 "
            f"(requested {g})")
    first = max(m_lo, lift_floor(base, g))
    if first > m_max:
        raise InfeasibleTarget(f"girth {g} is sought only at M >= {first} on this base, "
                               f"above m_max={m_max}")
    return first


def _drive(system: GirthSystem, steps, deadline: float, seed: int) -> SearchResult | None:
    """Run a mode's blocks until one holds a hit, the blocks run out or the
    deadline passes; certify the hit and return it as the search result."""
    attempts = 0
    for tried, hit in steps:
        attempts += tried
        if hit is not None:
            values, m = hit
            w = assignment_to_degree_matrix(system.base, values, m)
            return SearchResult(w, m, _certify(system, w), seed, attempts)
        if time.monotonic() > deadline:
            return None
    return None


def _checked(system: GirthSystem, block: np.ndarray, m: int):
    """A block's step: its size, and its first row the checker accepts at M."""
    ok = system.check_batch(block, m)
    return block.shape[0], (block[int(np.argmax(ok))], m) if ok.any() else None


def _sweeps(system: GirthSystem, m_lo: int, m_hi: int, per_m: int, draw):
    """Ascending sweeps over M in [m_lo, m_hi], repeated until the driver
    stops: ``per_m`` rows of ``draw(m, size)`` per M, in blocks of at most
    512.  An empty range yields nothing."""
    while m_lo <= m_hi:
        for m in range(m_lo, m_hi + 1):
            for done in range(0, per_m, 512):
                yield _checked(system, draw(m, min(512, per_m - done)), m)


def _run_shard(cfg: SearchConfig, base: BaseMatrix, m_lo: int, shard_seed: int,
               deadline: float) -> SearchResult | None:
    system = GirthSystem(base, cfg.girth)
    rng = np.random.default_rng(shard_seed)
    edges = _restricted_edges(base)
    steps = _sweeps(system, m_lo, cfg.m_max, cfg.attempts_per_m,
                    lambda m, size: sample_assignment(base, rng, m, size, edges=edges))
    return _drive(system, steps, deadline, cfg.seed)


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def search(cfg: SearchConfig) -> SearchResult:
    """Find a certified degree matrix with girth >= cfg.girth and minimal M.

    Every shard sweeps M upwards from ``cfg.m_min`` or the base's
    ``lift_floor``, whichever is larger.  Raises InfeasibleTarget when a
    structural bound rules the target out or that start lies above
    ``cfg.m_max``, and TimeBudgetExceeded when no certified result appears
    within the budget.
    The ``cfg.jobs`` shards, one seed each, run on at most as many worker
    processes as there are usable cores, and all share one deadline.
    """
    base = resolve_base(cfg.base)
    m_lo = _first_m(base, cfg.girth, cfg.m_min or 1, cfg.m_max)
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg.seed).spawn(cfg.jobs)]
    # the monotonic clock is system-wide, so worker processes can read it too
    run = partial(_run_shard, cfg, base, m_lo, deadline=time.monotonic() + cfg.budget_secs)
    if cfg.jobs == 1:
        results = [run(seeds[0])]
    else:
        # imported here: it pulls in multiprocessing, which one shard never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, _usable_cores())) as pool:
            results = list(pool.map(run, seeds))
    found = [r for r in results if r is not None]
    if not found:
        raise TimeBudgetExceeded("search budget exceeded")
    return min(found, key=lambda r: (r.m, tuple(r.degree.entries.ravel().tolist())))


def extend_column(w: DegreeMatrix, cfg: SearchConfig) -> SearchResult:
    """Grow a certified (3, K-1) degree matrix by one random column.

    The input's columns keep their degrees.  The new column is drawn in
    [0, M) through ``sample_assignment``, ``cfg.attempts_per_m`` times per M,
    from the smallest M that the input's degrees and the new base's
    ``lift_floor`` allow, and the result is re-certified at the configured
    girth.  Raises InfeasibleTarget as :func:`search` does.
    """
    if w.has_no_edge():
        raise ValueError("column extension expects an all-ones base")
    j, k_old = w.entries.shape
    base_new = all_ones_base(j, k_old + 1)
    m_lo = _first_m(base_new, cfg.girth, max(2, w.max_degree + 1, cfg.m_min or 2), cfg.m_max)
    system = GirthSystem(base_new, cfg.girth)
    rng = np.random.default_rng(cfg.seed)
    old = [jj < k_old for _, jj in base_new.edges()]
    old_values = degree_matrix_to_assignment(w)
    # the input's columns are fixed, so the new column's first-row edge has
    # nothing to be sorted against
    edges = (_restricted_edges(base_new)[0], np.empty(0, dtype=np.int64))

    def draw(m, size):
        block = sample_assignment(base_new, rng, m, size, edges=edges)
        block[:, old] = old_values
        return block

    result = _drive(system, _sweeps(system, m_lo, cfg.m_max, cfg.attempts_per_m, draw),
                    time.monotonic() + cfg.budget_secs, cfg.seed)
    if result is None:
        raise TimeBudgetExceeded("search budget exceeded")
    return result


def _product_rows(m: int, width: int) -> np.ndarray:
    """The rows of ``itertools.product(range(m), repeat=width)`` in order, as
    one int64 array: the base-m digits of 0 .. m^width - 1, last column
    fastest, with no Python tuple built."""
    place = m ** np.arange(width - 1, -1, -1, dtype=np.int64)
    rows = np.arange(m ** width, dtype=np.int64)[:, None] // place
    rows %= m
    return rows


def exhaustive(k: int, g: int, m_max: int) -> SearchResult | None:
    """Exhaustive scan of the 3 x k all-ones base, smallest M first from its
    ``lift_floor`` (at least 2); None proves no M up to ``m_max`` has girth g.
    Gauge zeros sit on column 0 and the last row.  Permuting columns 1..k-1
    keeps them, and so does swapping rows 0 and 1.  So the first free row is
    non-decreasing and the second's descending sort b is at most the first's,
    a (``<=``): if a != b the assignment or its row swap is kept, if a == b
    both are, so every class keeps a representative, ties included.  Each M
    costs an M^(k-1)-row table; each first row's second rows are one block,
    checked in enumeration order.  Raises InfeasibleTarget as :func:`search` does.
    """
    base = all_ones_base(3, k)
    m_lo = _first_m(base, g, 2, m_max)
    system = GirthSystem(base, g)
    masked, row0 = _restricted_edges(base)
    row1 = np.setdiff1d(np.arange(base.entries.size), np.concatenate([masked, row0]))

    def blocks():
        for m in range(m_lo, m_max + 1):
            seconds = _product_rows(m, row1.size)
            # a row's rank under the descending-sort order, as a base-M number
            weights = m ** np.arange(row0.size - 1, -1, -1, dtype=np.int64)
            second_keys = -np.sort(-seconds, axis=1) @ weights
            for first in itertools.combinations_with_replacement(range(m), row0.size):
                second = seconds[second_keys <= np.array(first[::-1]) @ weights]
                block = np.zeros((second.shape[0], base.entries.size), dtype=np.int64)
                block[:, row0], block[:, row1] = first, second
                yield _checked(system, block, m)

    return _drive(system, blocks(), math.inf, 0)


def exhaustive_34(g: int, m_max: int) -> SearchResult | None:
    """:func:`exhaustive` on the (3,4) all-ones base, the name bench/ runs."""
    return exhaustive(4, g, m_max)
