from __future__ import annotations

import concurrent.futures
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from girthforge.bases import all_ones_base, zero_voltage_mask
from girthforge.girth import GirthSystem, certified_girth
from girthforge.lifting import lift_tailbiting
from girthforge.matrices import NO_EDGE, BaseMatrix, DegreeMatrix
from girthforge.search import (InfeasibleTarget, SearchConfig, SearchResult,
                               TimeBudgetExceeded, _product_rows, _restricted_edges,
                               degree_matrix_to_assignment, exhaustive, exhaustive_34,
                               extend_column, resolve_base,
                               sample_assignment, search)
import girthforge
from girthforge import catalog


def cfg34(girth=8, **kw):
    defaults = dict(base={"kind": "all_ones", "j": 3, "k": 4}, girth=girth,
                    m_max=16, seed=1, budget_secs=30.0)
    defaults.update(kw)
    return SearchConfig(**defaults)


def test_sample_assignment_mask_and_determinism():
    base = all_ones_base(3, 4)
    rng = np.random.default_rng(5)
    block = sample_assignment(base, rng, 9, size=8)
    mask = zero_voltage_mask(base)
    edge_index = {pos: e for e, pos in enumerate(base.edges())}
    for pos in mask:
        assert (block[:, edge_index[pos]] == 0).all()
    # first free row is sorted ascending
    row0 = [edge_index[(0, j)] for j in range(1, 4)]
    assert (np.diff(block[:, row0], axis=1) >= 0).all()
    replay = sample_assignment(all_ones_base(3, 4), np.random.default_rng(5), 9, size=8)
    assert np.array_equal(block, replay)


def test_sample_assignment_range_one_is_zero():
    base = all_ones_base(3, 4)
    block = sample_assignment(base, np.random.default_rng(0), 1, size=4)
    assert not block.any()


def test_sample_assignment_leaves_sts_first_row_unsorted():
    # sorting the first row is a column symmetry that only all-ones bases have
    base = resolve_base({"kind": "sts", "order": 9})
    block = sample_assignment(base, np.random.default_rng(0), 50, size=64)
    mask = zero_voltage_mask(base)
    edges = base.edges()
    assert not block[:, [e for e, pos in enumerate(edges) if pos in mask]].any()
    row0 = [e for e, pos in enumerate(edges) if pos[0] == 0 and pos not in mask]
    assert (np.diff(block[:, row0], axis=1) < 0).any()


def _smallest_m(system, pinned, ordered):
    """Smallest M at which some assignment passes, among all assignments with
    the ``pinned`` edges at zero and the ``ordered`` ones non-decreasing."""
    n_edges = int(system.base.entries.sum())
    free = np.setdiff1d(np.arange(n_edges), pinned)
    for m in itertools.count(2):
        block = np.zeros((m ** free.size, n_edges), dtype=np.int64)
        block[:, free] = list(itertools.product(range(m), repeat=free.size))
        block = block[(np.diff(block[:, ordered], axis=1) >= 0).all(axis=1)]
        if system.check_batch(block, m).any():
            return m


@pytest.mark.parametrize("rows,g,m,m_sorted,n_ordered", [
    ([[1, 1, 1, 1], [0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 1, 1]], 8, 6, 7, 0),
    ([[1, 1, 1, 1], [1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 1, 1]], 8, 6, 7, 0),
    ([[1, 1, 1, 1], [0, 0, 1, 1], [1, 0, 1, 0], [1, 1, 1, 1]], 8, 6, 7, 0),
    ([[1, 1, 1, 1]] * 3, 6, 5, 5, 3),
], ids=["irregular_a", "irregular_b", "irregular_c", "all_ones_34"])
def test_restricted_space_keeps_smallest_m(rows, g, m, m_sorted, n_ordered):
    # exhaustively, the derived space reaches the smallest M that the zero
    # mask alone reaches, while a sorted first row (m_sorted) is a loss on
    # every base but the all-ones one
    base = BaseMatrix(np.array(rows, dtype=np.uint8))
    system = GirthSystem(base, g)
    mask = [e for e, pos in enumerate(base.edges()) if pos in zero_voltage_mask(base)]
    row0 = [e for e, pos in enumerate(base.edges()) if pos[0] == 0 and e not in mask]
    pinned, ordered = _restricted_edges(base)
    assert pinned.tolist() == mask and ordered.size == n_ordered
    assert _smallest_m(system, mask, []) == m
    assert _smallest_m(system, mask, row0) == m_sorted
    assert _smallest_m(system, pinned, ordered) == m


def test_search_finds_g8_within_m12():
    result = search(cfg34())
    assert result.m <= 12
    assert result.girth >= 8
    assert result.degree.modulus == result.m
    # restriction soundness: mask zeros and ascending first row survive
    entries = result.degree.entries
    assert not entries[:, 0].any() and not entries[-1].any()
    assert (np.diff(entries[0, 1:]) >= 0).all()


def test_search_deterministic_for_seed():
    # the reported seed is the config seed, so re-running with it repeats
    # the search rather than starting from an unrelated shard seed
    a = search(cfg34(seed=42))
    assert a.seed == 42
    b = search(cfg34(seed=a.seed))
    assert a.m == b.m and a.degree == b.degree and a.attempts == b.attempts


@pytest.mark.parametrize("girth,seed,m_max,m,attempts,entries", [
    (8, 1, 24, 9, 11776, [[0, 5, 6, 8], [0, 7, 3, 4], [0, 0, 0, 0]]),
    (8, 2, 24, 9, 10240, [[0, 3, 4, 7], [0, 6, 8, 5], [0, 0, 0, 0]]),
    (10, 2, 96, 46, 88576, [[0, 9, 12, 36], [0, 41, 13, 30], [0, 0, 0, 0]]),
], ids=["g8-seed1", "g8-seed2", "g10-seed2"])
def test_seeded_search_outcomes_pinned(girth, seed, m_max, m, attempts, entries):
    # a checker or sampler change must not change what a seeded search finds
    result = search(cfg34(girth=girth, seed=seed, m_max=m_max))
    assert (result.degree.entries.tolist(), result.m, result.attempts) == (
        entries, m, attempts)


def test_search_g4_immediate():
    # no cycle shorter than 4 exists in a bipartite graph, so the zero
    # assignment at M = max degree + 1 = 1 already qualifies
    result = search(cfg34(girth=4, m_max=4))
    assert result.m == 1
    assert result.girth >= 4


def test_search_rejects_girth_above_cap():
    with pytest.raises(InfeasibleTarget):
        search(cfg34(girth=14))


def test_search_budget_exceeded():
    # girth 12 needs M = 73, so a sweep of M = 43..60 (from the Moore floor
    # up) can never succeed
    with pytest.raises(TimeBudgetExceeded):
        search(cfg34(girth=12, m_max=60, budget_secs=0.5))


def _no_checks(monkeypatch):
    def refuse(self, assignments, modulus):
        raise AssertionError("an assignment below the Moore floor was checked")

    monkeypatch.setattr(GirthSystem, "check_batch", refuse)


def test_search_below_the_floor_is_infeasible(monkeypatch):
    # (3,4) at girth 12 has a Moore floor of M = 43: an m_max of 20 is
    # refused before any assignment is drawn, whatever the budget
    _no_checks(monkeypatch)
    with pytest.raises(InfeasibleTarget, match="M >= 43 .* above m_max=20"):
        search(cfg34(girth=12, m_max=20, budget_secs=600.0))


def test_extend_column_below_the_floor_is_refused(monkeypatch):
    # (3,5) at girth 10 has a Moore floor of M = 41, above g10_k4's degrees
    _no_checks(monkeypatch)
    w = catalog.BY_NAME["g10_k4"].degree_matrix()
    with pytest.raises(InfeasibleTarget, match="M >= 41 .* above m_max=40"):
        extend_column(w, SearchConfig(base={}, girth=10, m_max=40, budget_secs=600.0))


def test_exhaustive_34_below_the_floor_scans_nothing(monkeypatch):
    _no_checks(monkeypatch)
    with pytest.raises(InfeasibleTarget, match="M >= 43 .* above m_max=20"):
        exhaustive_34(12, 20)


def test_search_parallel_shards_merge():
    result = search(cfg34(jobs=2, seed=9))
    assert result.girth >= 8 and result.m <= 16


def test_import_leaves_the_process_pool_unloaded():
    # the pool pulls in multiprocessing, so only a search with jobs > 1
    # imports it, and neither the package nor the CLI pays for it at start
    code = ("import sys, girthforge, girthforge.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    src = str(Path(girthforge.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "False"


def test_search_caps_workers_at_usable_cores(monkeypatch):
    # the shards run in-process on a recording executor, so no worker
    # process is started however many shards a config asks for
    pools, starts, deadlines = [], [], []

    class Recorder:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, seeds):
            return [fn(seed) for seed in seeds]

    search_module = sys.modules["girthforge.search"]
    run_one = search_module._run_shard

    def run_shard(cfg, base, m_lo, shard_seed, deadline):
        starts.append(m_lo)
        deadlines.append(deadline)
        return run_one(cfg, base, m_lo, shard_seed, deadline)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(search_module, "_usable_cores", lambda: 2)
    monkeypatch.setattr(search_module, "_run_shard", run_shard)
    jobs = 5
    result = search(cfg34(girth=6, m_max=8, jobs=jobs, seed=4))
    assert pools == [2]
    # every shard ran from the (3,4) girth-6 floor of M = 4, on one shared deadline
    assert starts == [4] * jobs
    assert len(deadlines) == jobs and len(set(deadlines)) == 1
    # the same shards, one seed each, as with one worker per shard
    shard_seeds = [int(s.generate_state(1)[0])
                   for s in np.random.SeedSequence(4).spawn(jobs)]
    shards = [run_one(cfg34(girth=6, m_max=8, seed=4), all_ones_base(3, 4), 4, s,
                      deadlines[0] + 60) for s in shard_seeds]
    best = min(shards, key=lambda r: (r.m, tuple(r.degree.entries.ravel().tolist())))
    assert (result.m, result.degree, result.attempts) == (best.m, best.degree, best.attempts)


def test_config_json_round_trip(tmp_path):
    cfg = cfg34(seed=11)
    parsed = SearchConfig.from_json(cfg.to_json())
    assert parsed == cfg
    with pytest.raises(ValueError):
        SearchConfig.from_json('{"base": {}, "girth": 8, "m_max": 4, "bogus": 1}')
    # the search space follows from the base, so no config key restricts it
    with pytest.raises(ValueError, match="unknown config keys"):
        SearchConfig.from_json('{"base": {}, "girth": 8, "m_max": 4, "restrictions": {}}')
    # nor is there an integer search mode to switch on
    with pytest.raises(ValueError, match="unknown config keys"):
        SearchConfig.from_json('{"base": {}, "girth": 8, "m_max": 4, "integer_mode": true}')


@pytest.mark.parametrize("change", [
    {"girth": 7}, {"girth": 8.0}, {"girth": True}, {"m_max": "10"}, {"m_max": 0},
    {"m_min": 0}, {"m_min": 17}, {"attempts_per_m": 0}, {"jobs": 0}, {"seed": -1},
    {"budget_secs": 0}, {"budget_secs": float("nan")}, {"budget_secs": "5"},
])
def test_config_rejects_bad_fields(change):
    with pytest.raises(ValueError):
        cfg34(**change)


def test_config_accepts_edge_values():
    cfg = cfg34(girth=4, m_max=1, m_min=1, attempts_per_m=1, seed=0, budget_secs=1)
    assert (cfg.m_min, cfg.m_max) == (1, 1)


@pytest.mark.parametrize("spec", ["x", None, {"kind": "bogus"}, {"kind": "sts", "order": 7},
                                  {"kind": "shortened_sts", "order": "9"},
                                  {"kind": "all_ones"}, {"kind": "all_ones", "k": "x"},
                                  {"kind": "all_ones", "j": 3.0, "k": 4},
                                  {"kind": "all_ones", "j": True, "k": 4},
                                  {"kind": "code"}, {"kind": "code", "path": 3}])
def test_resolve_base_rejects_unknown_specs(spec):
    with pytest.raises(ValueError):
        resolve_base(spec)


def test_extend_column_rejects_m_max_below_start():
    # g08_k4's largest degree is 6, so the extension cannot start below M=7;
    # at girth 6 the (3,5) Moore floor of M=5 lies below that
    w = catalog.BY_NAME["g08_k4"].degree_matrix()
    with pytest.raises(InfeasibleTarget, match="M >= 7 .* above m_max=6"):
        extend_column(w, SearchConfig(base={}, girth=6, m_max=6, budget_secs=30.0))


def test_resolve_base_kinds(tmp_path):
    assert resolve_base({"kind": "all_ones", "j": 3, "k": 5}).entries.shape == (3, 5)
    assert resolve_base({"kind": "sts", "order": 9}).entries.shape == (9, 12)
    assert resolve_base({"kind": "shortened_sts", "order": 13}).entries.shape == (12, 20)
    wm = tmp_path / "seed.wm"
    from girthforge.matrices import emit_degree_matrix
    wm.write_text(emit_degree_matrix(catalog.BY_NAME["g08_k4"].degree_matrix()))
    b = resolve_base({"kind": "code", "path": str(wm)})
    assert b.entries.shape == (27, 36)
    assert b.entries.sum(axis=0).tolist() == [3] * 36


def test_extend_column_from_g6_k4():
    w = catalog.BY_NAME["g06_k4"].degree_matrix()
    result = extend_column(w, SearchConfig(base={}, girth=6, m_max=7, seed=2,
                                           budget_secs=30.0))
    assert result.degree.n_cols == 5
    assert result.girth >= 6
    assert result.m <= 7
    # existing columns untouched
    assert np.array_equal(result.degree.entries[:, :4] % result.m,
                          w.entries % result.m)
    # the new column is drawn in [0, M)
    assert result.degree.entries[:, 4].max() < result.m


def test_extend_column_reaches_g10():
    # the new column draws from all of [0, M): no cap tied to the input's
    # degrees keeps it from reaching girth 10
    w = catalog.BY_NAME["g10_k4"].degree_matrix()
    result = extend_column(w, SearchConfig(base={}, girth=10, m_max=120, seed=1,
                                           budget_secs=30.0))
    assert (result.m, result.attempts) == (82, 171008)
    assert np.array_equal(result.degree.entries[:, :4], w.entries)
    assert certified_girth(lift_tailbiting(result.degree, result.m), cap=32) >= 10


def test_code_as_base_relift(tmp_path):
    # an existing lifted code reused as base: any assignment keeps at least
    # the base girth, and a short search pushes past it
    from girthforge.bounds import base_girth
    from girthforge.catalog import CORPUS_DIR

    path = str(CORPUS_DIR / "g06_k4.wm")
    base = resolve_base({"kind": "code", "path": path})
    assert base.entries.shape == (15, 20)
    assert base_girth(base) == 6
    cfg = SearchConfig(base={"kind": "code", "path": path}, girth=8,
                       m_max=12, seed=3, budget_secs=60.0)
    result = search(cfg)
    assert result.girth >= 8
    assert result.degree.n_cols == 20


def test_duplicate_column_extension_rejected():
    # a copied column creates a four-cycle whose voltage is always zero,
    # so the checker refuses such an assignment at any girth target
    w = catalog.BY_NAME["g06_k4"].degree_matrix()
    system = GirthSystem(all_ones_base(3, 5), 6)
    values = np.concatenate([degree_matrix_to_assignment(w).reshape(3, 4),
                             w.entries[:, -1:].astype(np.int64)], axis=1).ravel()
    assert not system.check(values, modulus=w.modulus)


def test_exhaustive_34_finds_published_minimum():
    result = exhaustive_34(6, 6)
    assert result is not None
    assert result.m == 5
    assert result.degree == catalog.BY_NAME["g06_k4"].degree_matrix()


def test_exhaustive_34_returns_none_below_the_minimum():
    # the (3,4) girth-8 minimum is M=9: the scan keeps a representative of
    # every assignment class, so running out of blocks up to M=8 proves it
    assert exhaustive_34(8, 8) is None


@pytest.mark.parametrize("width", [1, 3, 6])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_product_rows_match_itertools_product(m, width):
    # the exhaustive scan's second-row table, rows in product order
    rows = _product_rows(m, width)
    assert rows.dtype == np.int64 and rows.shape == (m ** width, width)
    assert rows.tolist() == [list(row) for row in itertools.product(range(m), repeat=width)]


def test_extend_column_rejects_bases_with_holes():
    entries = catalog.BY_NAME["g08_k4"].degree_matrix().entries.copy()
    entries[1, 2] = NO_EDGE
    with pytest.raises(ValueError, match="all-ones base"):
        extend_column(DegreeMatrix(entries), SearchConfig(base={}, girth=8, m_max=40))


@pytest.mark.parametrize("text", ["[]", "8", '"base"', "null"])
def test_config_from_json_rejects_non_objects(text):
    with pytest.raises(ValueError, match="must be a JSON object"):
        SearchConfig.from_json(text)


def _extend_g8_k4():
    return extend_column(catalog.BY_NAME["g08_k4"].degree_matrix(),
                         SearchConfig(base={}, girth=8, m_max=40, seed=1, budget_secs=5.0))


@pytest.mark.parametrize("run", [
    lambda: search(cfg34(budget_secs=5.0)),
    _extend_g8_k4,
    lambda: exhaustive_34(8, 16),
], ids=["search", "extend_column", "exhaustive_34"])
def test_oracle_disagreement_raises(monkeypatch, run):
    # an oracle girth below the target contradicts the checker: every accept
    # path must raise instead of moving on until the budget runs out
    monkeypatch.setattr(sys.modules["girthforge.search"], "certified_girth",
                        lambda h, cap=32: 6)
    with pytest.raises(AssertionError, match="disagree"):
        run()


def _pinned_extension():
    return extend_column(catalog.BY_NAME["g08_k4"].degree_matrix(),
                         SearchConfig(base={}, girth=8, m_max=40, seed=1,
                                      budget_secs=60.0))


def _pinned_code_base():
    from girthforge.catalog import CORPUS_DIR
    return search(SearchConfig(base={"kind": "code", "path": str(CORPUS_DIR / "g06_k4.wm")},
                               girth=8, m_max=12, seed=3, budget_secs=60.0))


# The code base's 60 voltages, row-major over its nonzero base entries.  Its
# first row is drawn unsorted: a code base has no column symmetry to sort by.
_CODE_BASE_VALUES = [0, 2, 1, 0, 0, 3, 4, 1, 0, 0, 1, 2, 0, 0, 4, 4, 0, 1, 0, 1,
                     0, 0, 0, 2, 0, 4, 4, 2, 0, 3, 4, 1, 0, 3, 0, 3, 0, 0, 3, 1,
                     0, 0, 0, 3, 0, 4, 0, 0, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 0]


@pytest.mark.parametrize("run,m,attempts,values", [
    (_pinned_extension, 15, 25600, [0, 1, 4, 6, 12, 0, 5, 2, 3, 7, 0, 0, 0, 0, 0]),
    (lambda: exhaustive_34(6, 6), 5, 1616, [0, 1, 2, 4, 0, 3, 1, 2, 0, 0, 0, 0]),
    (lambda: exhaustive_34(8, 16), 9, 59240, [0, 1, 3, 7, 0, 2, 6, 5, 0, 0, 0, 0]),
    # g06_k5 sits at M=5 with free rows {1,2,3,4} and {3,1,4,2}: equal
    # multisets, so a strict row-swap cut drops them and reports M=6
    (lambda: exhaustive(5, 6, 6), 5, 11723, [0, 1, 2, 3, 4, 0, 2, 4, 1, 3, 0, 0, 0, 0, 0]),
    (lambda: exhaustive(6, 6, 7), 7, 2745270,
     degree_matrix_to_assignment(catalog.BY_NAME["g06_k6"].degree_matrix()).tolist()),
    (_pinned_code_base, 5, 15872, _CODE_BASE_VALUES),
], ids=["extend_column", "exhaustive_g6", "exhaustive_g8", "exhaustive_k5_g6",
        "exhaustive_k6_g6", "code_base"])
def test_scan_mode_outcomes_pinned(run, m, attempts, values):
    # every scan mode keeps its draws, its scan order and its attempt count
    result = run()
    assert (result.m, result.attempts) == (m, attempts)
    assert degree_matrix_to_assignment(result.degree).tolist() == values


@pytest.mark.parametrize("run", [
    lambda: search(cfg34(seed=2, m_max=24, budget_secs=60.0)),
    _pinned_extension,
    lambda: exhaustive_34(6, 6),
], ids=["search", "extend_column", "exhaustive_34"])
def test_attempts_count_checked_rows(monkeypatch, run):
    rows = []
    check_batch = GirthSystem.check_batch

    def counted(self, assignments, modulus):
        rows.append(len(assignments))
        return check_batch(self, assignments, modulus)

    monkeypatch.setattr(GirthSystem, "check_batch", counted)
    assert run().attempts == sum(rows)
