"""The traced benchmark wraps program functions by name (``bench/layers.py``)
and its workloads call them through module attributes (``bench/workloads.py``).
These tests fail when a refactor removes or renames one of them, or calls it
in a way the wrapper no longer sees."""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("gf2", "girth", "lifting", "matrices", "mindist", "search")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return (importlib.import_module("layers"), importlib.import_module("tracer"))


def _program():
    return types.SimpleNamespace(**{name: importlib.import_module(f"girthforge.{name}")
                                    for name in MODULES})


def test_instrument_finds_every_hook_and_restores(bench):
    layers, tracer_mod = bench
    prog = _program()
    before = {name: dict(vars(getattr(prog, name))) for name in MODULES}
    system_before = dict(vars(prog.girth.GirthSystem))
    tracer = tracer_mod.Tracer()
    try:
        layers.instrument(tracer, prog)
    finally:
        tracer.restore()
    assert {name: dict(vars(getattr(prog, name))) for name in MODULES} == before
    assert dict(vars(prog.girth.GirthSystem)) == system_before


def test_traced_search_counts_agree(bench):
    # the traced run requires search.attempts to equal the assignments the
    # checker saw, and reads the sampler and checker through their hooks
    layers, tracer_mod = bench
    prog = _program()
    tracer = tracer_mod.Tracer()
    layers.instrument(tracer, prog)
    try:
        prog.search.search(prog.search.SearchConfig(
            base={"kind": "all_ones", "j": 3, "k": 4}, girth=8, m_max=16, seed=1,
            budget_secs=60.0))
        prog.search.exhaustive_34(6, 6)
    finally:
        tracer.restore()
    spans = tracer.summary()
    for name in ("search.search", "search.exhaustive_34", "search.sample",
                 "girth.system_build", "girth.check_batch", "girth.certified_girth",
                 "lifting.lift_tailbiting"):
        assert spans[name]["calls"] > 0, name
    assert tracer.counts["search.attempts"] > 0
    assert tracer.counts["search.attempts"] == tracer.counts["girth.check_batch_assignments"]


def test_traced_bfs_counts_orbit_starts(bench):
    # the BFS counters read the oracle's start_vertices keyword, so a changed
    # call from certified_girth would silently zero them
    from girthforge import catalog
    layers, tracer_mod = bench
    prog = _program()
    entry = catalog.BY_NAME["g06_k4"]
    h = prog.lifting.lift_tailbiting(entry.degree_matrix(), entry.m)
    tracer = tracer_mod.Tracer()
    layers.instrument(tracer, prog)
    try:
        assert prog.girth.certified_girth(h) == entry.girth
    finally:
        tracer.restore()
    assert tracer.summary()["girth.bfs"]["calls"] == 1
    assert tracer.counts["girth.bfs_starts"] == len(prog.girth.qc_start_vertices(h)) > 0


def _program_chains(path: Path) -> set[tuple[str, str]]:
    """Every ``(module, name)`` of a ``prog.<module>.<name>`` or
    ``self.prog.<module>.<name>`` chain in the source at ``path``."""
    def is_prog(node) -> bool:
        return (isinstance(node, ast.Name) and node.id == "prog"
                or isinstance(node, ast.Attribute) and node.attr == "prog"
                and isinstance(node.value, ast.Name) and node.value.id == "self")

    return {(node.value.attr, node.attr) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and is_prog(node.value.value)}


def test_workloads_call_names_the_package_has():
    # the workloads reach the program only through these chains, so a
    # renamed function would otherwise show only when the benchmark runs
    chains = _program_chains(BENCH / "workloads.py")
    assert {("lifting", "lift_tailbiting"), ("matrices", "gf2_rank"),
            ("girth", "certified_girth"), ("catalog", "BY_NAME"),
            ("mindist", "min_weight_codeword"), ("mindist", "min_distance_md"),
            ("mindist", "min_distance_bruteforce")} <= chains
    missing = [f"{module}.{name}" for module, name in sorted(chains)
               if not hasattr(importlib.import_module(f"girthforge.{module}"), name)]
    assert missing == []
