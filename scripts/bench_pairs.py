"""Interleaved ``bench/run.py`` pairs between a parent checkout and this one,
written to one ``BENCH_<n>.json``.

    python3 scripts/bench_pairs.py --parent ../parent --out BENCH_13.json \\
        --change "what the change does" \\
        --pairs search_34=10 --pairs corpus_certify=5 --traced search_34=3

``--parent`` is a checkout of the parent commit (``git clone`` or
``git archive`` it next to this one).  Pair p of a workload runs both sides
at seed ``SEED0 + p``: the parent goes first in even pairs and this
checkout in odd ones, so a drift in the host's speed falls on both sides
alike.  Every run is one ``bench/run.py --trace 0`` process of its own
checkout, lasting the ``run_seconds`` of ``BENCHMARK.json``.  Per workload
and end-to-end metric of ``BENCHMARK.json`` the output gives the pairs, the
pairs the change wins and each side's quartiles.  ``--traced W=N`` adds N
``--trace 1`` runs per side on the same schedule and seeds, summarized the
same way over the ``per_layer`` metrics, so a per-layer number rests on N
runs a side, not on one.  Each run's full result, or its exit code and error
tail, is kept as well.

Before the first run every ``__pycache__`` under each side's ``src`` is
removed.  ``bench/run.py`` writes no bytecode, so a cached ``.pyc`` older
than its source would be recompiled in every run of the side that holds it
and charged to that side's ``setup_s``; with no cache on either side, both
compile alike.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEED0 = 101


def _workload_count(text: str) -> tuple[str, int]:
    name, sep, count = text.partition("=")
    if not sep or not count.isdigit():
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=N, got {text!r}")
    return name, int(count)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--change", required=True, help="one line on what changed")
    parser.add_argument("--pairs", type=_workload_count, action="append", default=[],
                        metavar="WORKLOAD=N", help="N interleaved pairs of a workload")
    parser.add_argument("--traced", type=_workload_count, action="append", default=[],
                        metavar="WORKLOAD=N", help="N --trace 1 runs per side")
    args = parser.parse_args(argv)
    known = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    unknown = sorted({name for name, _ in args.pairs + args.traced} - known)
    if unknown:
        parser.error(f"unknown workloads {', '.join(unknown)}; "
                     f"BENCHMARK.json lists {', '.join(sorted(known))}")
    if not (args.parent / "bench" / "run.py").is_file():
        parser.error(f"no bench/run.py under {args.parent}")
    return args


def schedule(pairs: int) -> list[tuple[int, tuple[str, str]]]:
    """(pair, side order) per pair: parent first in even pairs."""
    return [(p, SIDES if p % 2 == 0 else SIDES[::-1]) for p in range(pairs)]


def plan(counts: list[tuple[str, int]]) -> list[tuple[str, int, int, str]]:
    """(workload, pair, seed, side) per run: N scheduled pairs per workload,
    pair p at seed SEED0 + p."""
    return [(workload, pair, SEED0 + pair, side) for workload, count in counts
            for pair, order in schedule(count) for side in order]


def clear_bytecode(root: Path) -> list[str]:
    """Remove every ``__pycache__`` under ``root/src``; the removed
    directories, relative to ``root``."""
    caches = sorted(root.glob("src/**/__pycache__"))
    for cache in caches:
        shutil.rmtree(cache)
    return [str(cache.relative_to(root)) for cache in caches]


def run_bench(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``bench/run.py`` run of the checkout at ``root``: its JSON result,
    or its exit code and the tail of its error output."""
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [round(v, 3) for v in values * 3]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 3), round(q2, 3), round(q3, 3)]


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per workload and metric (name -> "lower"/"higher" is better): pairs
    where both sides ran, pairs the change wins, and each side's quartiles."""
    by_pair: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        if "metrics" in run["result"]:
            by_pair.setdefault(run["workload"], {}).setdefault(
                run["pair"], {})[run["side"]] = run["result"]["metrics"]
    summary = {}
    for workload, pairs in by_pair.items():
        both = [sides for _, sides in sorted(pairs.items()) if len(sides) == 2]
        summary[workload] = {}
        for name, better in metrics.items():
            values = {side: [s[side][name]["value"] for s in both] for side in SIDES}
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            summary[workload][name] = {
                "pairs": len(both), "change_wins": wins,
                "parent_q1_median_q3": _quartiles(values["parent"]),
                "change_q1_median_q3": _quartiles(values["change"])}
    return summary


def _commit(root: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": ROOT}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["better"] for m in spec["per_layer"]}

    def record(workload, pair, seed, side, trace):
        result = run_bench(roots[side], workload, seed, spec["run_seconds"], trace)
        print(f"{workload} pair {pair} seed {seed} {side} trace {trace}: "
              + json.dumps(result.get("metrics", result))[:200], file=sys.stderr)
        return {"workload": workload, "pair": pair, "seed": seed, "side": side,
                "trace": trace, "result": result}

    cleared = {side: clear_bytecode(root) for side, root in roots.items()}
    runs = [record(*run, 0) for run in plan(args.pairs)]
    traced = [record(*run, 1) for run in plan(args.traced)]
    report = {
        "change": args.change,
        "parent_commit": _commit(roots["parent"]),
        "command": f"python3 bench/run.py --workload W --seed N "
                   f"--seconds {spec['run_seconds']} --trace T",
        "order": f"pairs and traced runs interleaved; parent first in even pairs, "
                 f"change first in odd pairs; seed {SEED0} + pair",
        "bytecode": {"rule": "every src/**/__pycache__ of both sides removed "
                              "before the first run; runs write no bytecode",
                     "removed": cleared},
        "cores": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "summary": summarize(runs, metrics),
        "traced_summary": summarize(traced, layers),
        "runs": runs,
        "traced_runs": traced,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    failed = sum("metrics" not in r["result"] or not r["result"]["correct"]
                 for r in runs + traced)
    print(f"wrote {args.out}: {len(runs) + len(traced)} runs, {failed} failed or "
          f"incorrect", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
