"""One benchmark run in a fresh process: build the workload's inputs, repeat
its job in whole rounds for the given number of seconds, check the outcomes
and print one JSON report line.

Started by ``run.py``, which times set-up from this process's start.  Usage:
``python3 bench/worker.py WORKLOAD SEED SECONDS TRACE``.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from expected import COMPLEXITY_TABLE
from layers import instrument, layer_metrics
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROGRAM_MODULES = ("bases", "catalog", "gf2", "girth", "lifting", "matrices",
                   "mindist", "search")


class Program:
    """The program's modules, imported from this checkout's ``src``."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        package = importlib.import_module("girthforge")
        if Path(package.__file__).resolve().parent != SRC / "girthforge":
            raise ImportError(f"girthforge imported from {package.__file__}, "
                              f"not from {SRC}")
        for name in PROGRAM_MODULES:
            setattr(self, name, importlib.import_module(f"girthforge.{name}"))


FAILED = "failed"


def run_rounds(operations, seconds: float):
    """Run every operation once per round; start another round only while it
    is expected to end within ``seconds``.  Returns per-round outcomes
    (a failed operation's outcome is ``FAILED``) and round wall times."""
    outcomes, times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcome = {}
        for label, operation in operations:
            try:
                outcome[label] = operation()
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                outcome[label] = FAILED
        end = time.perf_counter()
        times.append(end - t0)
        outcomes.append(outcome)
        if end - start + times[-1] > seconds:
            return outcomes, times


def main(argv: list[str]) -> int:
    workload_name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    prog = Program()
    workload = WORKLOADS[workload_name](prog, seed, ROOT)
    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its spawn time.
    setup_done = time.monotonic()

    operations = workload.operations()
    tracer = None
    if trace:
        tracer = Tracer()
        instrument(tracer, prog)
    try:
        outcomes, times = run_rounds(operations, seconds)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = outcomes[0]
    failed = sum(out is FAILED for rnd in outcomes for out in rnd.values())
    succeeded = {k: v for k, v in first.items() if v is not FAILED}
    problems = workload.check(succeeded)
    problems += [f"round {r + 1} differs from round 1"
                 for r, rnd in enumerate(outcomes[1:], 1) if rnd != first]

    report = {
        "setup_done": setup_done,
        "rounds": len(times),
        "round_s": times,
        "job_s": statistics.median(times),
        "attempted": len(operations) * len(times),
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, len(times))
        report["layers"]["trace.job_s"] = (report["job_s"], "s")
        m_sum = workload.m_sum(succeeded) if hasattr(workload, "m_sum") else 0
        report["layers"]["search.m_sum"] = (m_sum, "count")
        problems += trace_problems(workload_name, report["layers"])
        write_trace(tracer, workload_name, seed)
    report["problems"] = problems
    print(json.dumps(report))
    return 0


def trace_problems(workload_name: str, layers: dict) -> list[str]:
    """Totals that the trace and an independent path must agree on."""
    problems = []
    attempts = layers["search.attempts"][0]
    checked = layers["girth.check_batch_assignments"][0] + layers["girth.check_calls"][0]
    if attempts != checked:
        problems.append(f"search.attempts {attempts} != assignments checked {checked}")
    if workload_name == "complexity_table":
        n_l = sum(nl for _, nl in COMPLEXITY_TABLE.values())
        if layers["girth.inequalities"][0] != n_l:
            problems.append(f"traced inequalities {layers['girth.inequalities'][0]} "
                            f"!= paper N_L sum {n_l}")
    return problems


def write_trace(tracer, workload_name: str, seed: int) -> None:
    """Spans and counters of the traced run, kept under ``.bench_out``."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    payload = {"workload": workload_name, "seed": seed,
               "counts": dict(tracer.counts), "spans": tracer.spans()}
    (out_dir / f"trace_{workload_name}.json").write_text(json.dumps(payload))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
