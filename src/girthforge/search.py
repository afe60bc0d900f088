"""Randomized voltage-assignment search with restriction handling,
tailbiting-length minimization, and incremental column extension.
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .bases import all_ones_base, sts_base, shorten_sts_base, zero_voltage_mask, CANONICAL_STS
from .bounds import theorem3_applies
from .girth import GirthSystem, certified_girth
from .lifting import lift_tailbiting
from .matrices import NO_EDGE, BaseMatrix, DegreeMatrix, FormatError, parse_degree_matrix


class InfeasibleTarget(Exception):
    """Target girth exceeds a structural bound of the base matrix."""


class TimeBudgetExceeded(Exception):
    """Search budget ran out; ``best`` carries a result if one was found."""

    def __init__(self, best: "SearchResult | None" = None):
        super().__init__("search budget exceeded")
        self.best = best


@dataclass(frozen=True)
class Restrictions:
    """Search-space restrictions (voltage-shift and permutation symmetry)."""

    zero_mask: bool = True
    first_row_ascending: bool = True


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
    integer_mode: bool = False
    restrictions: Restrictions = field(default_factory=Restrictions)

    @classmethod
    def from_json(cls, text: str) -> "SearchConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("search config must be a JSON object")
        restr = Restrictions(**raw.pop("restrictions", {}))
        allowed = {"base", "girth", "m_max", "m_min", "seed", "budget_secs",
                   "attempts_per_m", "jobs", "integer_mode"}
        unknown = set(raw) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(restrictions=restr, **raw)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


@dataclass(frozen=True)
class SearchResult:
    degree: DegreeMatrix
    m: int
    girth: int           # oracle-certified
    seed: int
    attempts: int
    wall_secs: float


def resolve_base(spec: dict | BaseMatrix) -> BaseMatrix:
    """Build the base matrix named by a config's ``base`` entry."""
    if isinstance(spec, BaseMatrix):
        return spec
    kind = spec.get("kind", "all_ones")
    if kind == "all_ones":
        return all_ones_base(spec.get("j", 3), spec["k"])
    if kind == "sts":
        return sts_base(CANONICAL_STS[spec["order"]])
    if kind == "shortened_sts":
        sts = CANONICAL_STS[spec["order"]]
        return shorten_sts_base(sts_base(sts), sts.replication)
    if kind == "code":
        from .bases import base_from_code
        with open(spec["path"], "rb") as fh:
            w = parse_degree_matrix(fh.read())
        if w.modulus is None:
            raise FormatError("code base needs a degree matrix with modulus")
        return base_from_code(lift_tailbiting(w, w.modulus))
    raise ValueError(f"unknown base kind {kind!r}")


def _restricted_edges(base: BaseMatrix,
                      restrictions: Restrictions) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids the restrictions pin to zero, and the unpinned first-row edge
    ids they sort ascending."""
    edges = base.edges()
    mask = zero_voltage_mask(base) if restrictions.zero_mask else set()
    masked = [e for e, pos in enumerate(edges) if pos in mask]
    free = [e for e, pos in enumerate(edges)
            if restrictions.first_row_ascending and pos[0] == 0 and pos not in mask]
    return np.array(masked, dtype=np.int64), np.array(free, dtype=np.int64)


def sample_assignment(base: BaseMatrix, rng: np.random.Generator, high: int,
                      restrictions: Restrictions = Restrictions(),
                      size: int = 1, *,
                      edges: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Sample a (size, n_edges) block of voltage assignments in [0, high).

    ``edges`` is ``_restricted_edges(base, restrictions)``, passed by callers
    that sample many blocks so that it is not recomputed for each one.
    """
    masked, free = edges if edges is not None else _restricted_edges(base, restrictions)
    n_edges = int(base.entries.sum())
    values = rng.integers(0, high, size=(size, n_edges), dtype=np.int64)
    values[:, masked] = 0
    if free.size:
        values[:, free] = np.sort(values[:, free], axis=1)
    return values


def assignment_to_degree_matrix(base: BaseMatrix, values: np.ndarray,
                                modulus: int | None = None) -> DegreeMatrix:
    entries = np.full(base.entries.shape, NO_EDGE, dtype=np.int64)
    rr, cc = np.nonzero(base.entries)
    vals = np.asarray(values, dtype=np.int64)
    if modulus is not None:
        vals = vals % modulus
    entries[rr, cc] = vals
    return DegreeMatrix(entries, modulus=modulus)


def degree_matrix_to_assignment(w: DegreeMatrix) -> np.ndarray:
    return w.entries[w.entries != NO_EDGE].astype(np.int64)


def _certify(system: GirthSystem, values: np.ndarray, m: int) -> int:
    """BFS-certify an assignment the checker accepted at modulus M.

    Returns the oracle girth of the lifted graph, or the target girth when no
    cycle lies within the oracle cap.  An oracle girth below the target means
    the checker and the oracle disagree, which raises.
    """
    w = assignment_to_degree_matrix(system.base, values, modulus=m)
    g_cert = certified_girth(lift_tailbiting(w, m), cap=max(32, system.g + 2))
    if g_cert is None:
        return system.g
    if g_cert < system.g:
        raise AssertionError(
            f"oracle girth {g_cert} below target {system.g} at M={m}: "
            f"checker and BFS oracle disagree")
    return g_cert


def minimize_m(system: GirthSystem, assignment: np.ndarray, m_lo: int,
               m_hi: int, certify: bool = True) -> int | None:
    """Smallest M in [m_lo, m_hi] with every inequality nonzero mod M.

    The assignment must satisfy the inequalities over the integers; every
    candidate below the returned M fails at least one inequality.  The winner
    is cross-certified with the BFS oracle when ``certify`` is set.
    """
    values = system.inequality_values(assignment)
    if (values == 0).any():
        return None
    for m in range(max(1, m_lo), m_hi + 1):
        if (values % m != 0).all():
            if certify:
                _certify(system, assignment, m)
            return m
    return None


def _feasibility_check(base: BaseMatrix, g: int) -> None:
    if g > 12 and theorem3_applies(base):
        raise InfeasibleTarget(
            f"base contains a 2x3 all-ones submatrix, so girth is capped at 12 "
            f"(requested {g})")


# A scan returns its certified hit as (assignment, M, girth), or None, and
# the number of assignments it tried.
_Hit = tuple[np.ndarray, int, int]


def _scan_once(system: GirthSystem, cfg: SearchConfig, rng: np.random.Generator,
               deadline: float) -> tuple[_Hit | None, int]:
    """One ascending sweep over candidate M values."""
    m_lo = cfg.m_min if cfg.m_min is not None else 1
    batch = 512
    attempts = 0
    edges = _restricted_edges(system.base, cfg.restrictions)
    for m in range(max(1, m_lo), cfg.m_max + 1):
        done = 0
        while done < cfg.attempts_per_m:
            if time.monotonic() > deadline:
                return None, attempts
            n = min(batch, cfg.attempts_per_m - done)
            block = sample_assignment(system.base, rng, m, cfg.restrictions, size=n,
                                      edges=edges)
            ok = system.check_batch(block, m)
            attempts += n
            done += n
            if ok.any():
                values = block[int(np.argmax(ok))]
                return (values, m, _certify(system, values, m)), attempts
    return None, attempts


def _scan_integer(system: GirthSystem, cfg: SearchConfig, rng: np.random.Generator,
                  deadline: float) -> tuple[_Hit | None, int]:
    """Two-phase mode: integer voltages first, then modulus minimization."""
    attempts = 0
    m_lo = cfg.m_min if cfg.m_min is not None else 2
    edges = _restricted_edges(system.base, cfg.restrictions)
    while time.monotonic() <= deadline:
        block = sample_assignment(system.base, rng, cfg.m_max, cfg.restrictions,
                                  size=256, edges=edges)
        attempts += block.shape[0]
        nonzero = (system.inequality_values(block) != 0).all(axis=1)
        for v in block[nonzero]:
            m = minimize_m(system, v, max(m_lo, int(v.max()) + 1), cfg.m_max,
                           certify=False)
            if m is not None:
                return (v, m, _certify(system, v, m)), attempts
    return None, attempts


def _run_shard(cfg: SearchConfig, shard_seed: int) -> SearchResult | None:
    system = GirthSystem(resolve_base(cfg.base), cfg.girth)
    rng = np.random.default_rng(shard_seed)
    t0 = time.monotonic()
    deadline = t0 + cfg.budget_secs
    attempts = 0
    scan = _scan_integer if cfg.integer_mode else _scan_once
    while time.monotonic() <= deadline:
        hit, n = scan(system, cfg, rng, deadline)
        attempts += n
        if hit is not None:
            values, m, girth = hit
            w = assignment_to_degree_matrix(system.base, values, modulus=m)
            return SearchResult(w, m, girth, cfg.seed, attempts, time.monotonic() - t0)
    return None


def search(cfg: SearchConfig) -> SearchResult:
    """Find a certified degree matrix with girth >= cfg.girth and minimal M.

    Raises InfeasibleTarget when a structural bound rules the target out and
    TimeBudgetExceeded when no certified result appears within the budget.
    """
    base = resolve_base(cfg.base)
    _feasibility_check(base, cfg.girth)
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg.seed).spawn(max(1, cfg.jobs))]
    if cfg.jobs <= 1:
        results = [_run_shard(cfg, seeds[0])]
    else:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_run_shard, [cfg] * len(seeds), seeds))
    found = [r for r in results if r is not None]
    if not found:
        raise TimeBudgetExceeded(best=None)
    return min(found, key=lambda r: (r.m, tuple(r.degree.entries.ravel().tolist())))


def extend_column(w: DegreeMatrix, cfg: SearchConfig) -> SearchResult:
    """Grow a certified (3, K-1) degree matrix by one random column.

    New-column degrees are capped at twice the maximum degree of the input;
    existing columns are untouched and the result is re-certified at the
    configured girth.
    """
    base_old = w.base()
    if not base_old.entries.all():
        raise ValueError("column extension expects an all-ones base")
    j, k_old = base_old.n_rows, base_old.n_cols
    base_new = all_ones_base(j, k_old + 1)
    _feasibility_check(base_new, cfg.girth)
    system = GirthSystem(base_new, cfg.girth)
    rng = np.random.default_rng(cfg.seed)
    max_new = 2 * w.max_degree

    old_values = degree_matrix_to_assignment(w)
    edges_new = base_new.edges()
    old_edge_pos = [e for e, (i, jj) in enumerate(edges_new) if jj < k_old]
    new_edge_pos = [e for e, (i, jj) in enumerate(edges_new) if jj == k_old]
    mask = zero_voltage_mask(base_new)
    deadline = time.monotonic() + cfg.budget_secs
    t0 = time.monotonic()
    attempts = 0
    m_lo = max(2, w.max_degree + 1, (cfg.m_min or 2))
    while time.monotonic() <= deadline:
        for m in range(m_lo, cfg.m_max + 1):
            high = min(max_new + 1, m)
            block = np.empty((256, len(edges_new)), dtype=np.int64)
            block[:, old_edge_pos] = old_values % m
            new_vals = rng.integers(0, high, size=(256, len(new_edge_pos)), dtype=np.int64)
            for col_idx, e in enumerate(new_edge_pos):
                if edges_new[e] in mask:
                    new_vals[:, col_idx] = 0
            block[:, new_edge_pos] = new_vals
            ok = system.check_batch(block, m)
            attempts += block.shape[0]
            if ok.any():
                values = block[int(np.argmax(ok))]
                girth = _certify(system, values, m)
                w_new = assignment_to_degree_matrix(base_new, values, modulus=m)
                return SearchResult(w_new, m, girth, cfg.seed, attempts,
                                    time.monotonic() - t0)
            if time.monotonic() > deadline:
                break
    raise TimeBudgetExceeded(best=None)


def exhaustive_34(g: int, m_max: int, m_min: int = 2) -> SearchResult | None:
    """Exhaustive scan of restricted (3,4) degree matrices, smallest M first.

    Restrictions: zeros on the first column and last row, first free row
    non-decreasing, second row below the first when both are sorted in
    decreasing order (kills row/column permutations of known solutions).
    Each first row's admissible second rows are checked as one block, in
    enumeration order, so the first accepted row in that order wins.
    """
    base = all_ones_base(3, 4)
    if g > 12:
        raise InfeasibleTarget("girth above 12 is unreachable for all-ones bases")
    system = GirthSystem(base, g)
    edges = base.edges()
    row0 = [e for e, (i, jj) in enumerate(edges) if i == 0 and jj > 0]
    row1 = [e for e, (i, jj) in enumerate(edges) if i == 1 and jj > 0]
    t0 = time.monotonic()
    attempts = 0
    for m in range(max(2, m_min), m_max + 1):
        seconds = np.array(list(itertools.product(range(m), repeat=3)), dtype=np.int64)
        # a row's rank under the descending-sort order, as a base-M number
        weights = np.array([m * m, m, 1], dtype=np.int64)
        second_keys = -np.sort(-seconds, axis=1) @ weights
        for first in itertools.combinations_with_replacement(range(m), 3):
            second = seconds[second_keys < np.array(first[::-1]) @ weights]
            if second.shape[0] == 0:
                continue
            block = np.zeros((second.shape[0], len(edges)), dtype=np.int64)
            block[:, row0] = first
            block[:, row1] = second
            ok = system.check_batch(block, m)
            attempts += block.shape[0]
            if ok.any():
                values = block[int(np.argmax(ok))]
                girth = _certify(system, values, m)
                return SearchResult(assignment_to_degree_matrix(base, values, modulus=m),
                                    m, girth, 0, attempts, time.monotonic() - t0)
    return None
