"""The pair schedule and summary of ``scripts/bench_pairs.py``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
