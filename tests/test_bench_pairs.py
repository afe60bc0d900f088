"""The pair schedule and summary of ``scripts/bench_pairs.py``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(pair, side, job_s, rss):
    metrics = {"job_s": {"value": job_s, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"workload": "w", "pair": pair, "side": side, "trace": 0,
            "result": {"correct": True, "metrics": metrics}}


def test_schedule_alternates_which_side_goes_first():
    bench_pairs = _script()
    assert bench_pairs.schedule(3) == [(0, ("parent", "change")),
                                       (1, ("change", "parent")),
                                       (2, ("parent", "change"))]


def test_summary_counts_wins_and_quartiles_of_complete_pairs():
    bench_pairs = _script()
    runs = [_run(0, "parent", 3.0, 40.0), _run(0, "change", 1.0, 41.0),
            _run(1, "change", 2.0, 40.0), _run(1, "parent", 4.0, 42.0),
            _run(2, "parent", 5.0, 40.0), _run(2, "change", 6.0, 39.0),
            _run(3, "parent", 9.0, 40.0),
            {"workload": "w", "pair": 3, "side": "change", "trace": 0,
             "result": {"returncode": 1, "stderr": "boom"}}]
    summary = bench_pairs.summarize(runs, {"job_s": "lower", "peak_rss_mb": "lower"})
    assert summary["w"]["job_s"] == {"pairs": 3, "change_wins": 2,
                                     "parent_q1_median_q3": [3.5, 4.0, 4.5],
                                     "change_q1_median_q3": [1.5, 2.0, 4.0]}
    assert summary["w"]["peak_rss_mb"]["change_wins"] == 2
    higher = bench_pairs.summarize(runs, {"job_s": "higher"})
    assert higher["w"]["job_s"]["change_wins"] == 1


def test_traced_runs_follow_the_pair_schedule_and_are_summarized(tmp_path, monkeypatch):
    # --traced W=N runs N traced pairs on the schedule and seeds of --pairs,
    # summarized over BENCHMARK.json's per_layer metrics; no bench process runs
    bench_pairs = _script()
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("")
    spec = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    calls = []

    def fake_run(root, workload, seed, seconds, trace):
        side = "parent" if root == tmp_path.resolve() else "change"
        calls.append((workload, seed, side, trace))
        names = spec["per_layer"] if trace else spec["end_to_end"]
        value = seed + (0.5 if side == "change" else 0.0)
        return {"correct": True,
                "metrics": {m["name"]: {"value": value, "unit": m["unit"]} for m in names}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path), "--out", str(out), "--change", "x",
                             "--pairs", "search_34=2", "--traced", "search_34=3"]) == 0
    assert calls == [("search_34", 101, "parent", 0), ("search_34", 101, "change", 0),
                     ("search_34", 102, "change", 0), ("search_34", 102, "parent", 0),
                     ("search_34", 101, "parent", 1), ("search_34", 101, "change", 1),
                     ("search_34", 102, "change", 1), ("search_34", 102, "parent", 1),
                     ("search_34", 103, "parent", 1), ("search_34", 103, "change", 1)]
    report = json.loads(out.read_text())
    assert [(r["pair"], r["seed"], r["side"]) for r in report["traced_runs"]] == [
        (p, 101 + p, side) for p, order in bench_pairs.schedule(3) for side in order]
    traced = report["traced_summary"]["search_34"]
    assert sorted(traced) == sorted(m["name"] for m in spec["per_layer"])
    assert traced["girth.check_batch_rate"] == {
        "pairs": 3, "change_wins": 3, "parent_q1_median_q3": [101.5, 102.0, 102.5],
        "change_q1_median_q3": [102.0, 102.5, 103.0]}
    assert traced["trace.job_s"]["change_wins"] == 0
    assert sorted(report["summary"]["search_34"]) == sorted(
        m["name"] for m in spec["end_to_end"])


def test_unknown_workload_rejected_before_any_run(tmp_path, monkeypatch, capsys):
    # a workload BENCHMARK.json does not list is a usage error: no run starts
    # and no output file is written
    bench_pairs = _script()
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("")
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *a: pytest.fail("a run started"))
    out = tmp_path / "bench.json"
    for flags in (["--pairs", "search_43=2"], ["--pairs", "search_34=1", "--traced", "nope=1"]):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(["--parent", str(tmp_path), "--out", str(out), "--change", "x",
                              *flags])
        assert exc.value.code == 2
        assert "unknown workloads" in capsys.readouterr().err
    assert not out.exists()


def _checkout(root: Path) -> Path:
    """A checkout with a bench entry point and stale bytecode in and out of src."""
    (root / "bench" / "__pycache__").mkdir(parents=True)
    (root / "bench" / "run.py").write_text("")
    (root / "bench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"stale")
    for pkg in ("src/pkg/__pycache__", "src/pkg/sub/__pycache__"):
        (root / pkg).mkdir(parents=True)
        (root / pkg / "mod.cpython-311.pyc").write_bytes(b"stale")
    (root / "src" / "pkg" / "mod.py").write_text("")
    return root


def test_bytecode_under_src_cleared_on_both_sides_before_any_run(tmp_path, monkeypatch):
    # a cached .pyc older than its source is recompiled in every run when
    # runs write no bytecode, so both sides start with none under src
    bench_pairs = _script()
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    spec = (SCRIPT.parent.parent / "BENCHMARK.json").read_text()
    (change / "BENCHMARK.json").write_text(spec)
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    seen = []

    def fake_run(root, workload, seed, seconds, trace):
        seen.append([str(p.relative_to(root)) for p in sorted(root.rglob("__pycache__"))])
        names = json.loads(spec)["end_to_end"]
        return {"correct": True,
                "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in names}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(parent), "--out", str(out), "--change", "x",
                             "--pairs", "search_34=1"]) == 0
    # only the caches under src go; the .py source and bench's cache stay
    assert seen == [["bench/__pycache__"]] * 2
    assert (parent / "src" / "pkg" / "mod.py").is_file()
    removed = ["src/pkg/__pycache__", "src/pkg/sub/__pycache__"]
    assert json.loads(out.read_text())["bytecode"]["removed"] == {"parent": removed,
                                                                  "change": removed}
