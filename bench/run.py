"""girthforge benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a fresh worker process (``worker.py``) against the
program in this checkout's ``src``, with BLAS/OpenMP threads capped at the
core count, and prints one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(``setup_s``, ``job_s``, ``peak_rss_mb``); with ``--trace 1`` they are the
per-layer ones from ``layers.py``.  Exits non-zero without a result when the
program is missing, the worker fails or it overruns its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("complexity_table", "search_34", "corpus_certify", "distance_certify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKER_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "girthforge" / "__init__.py").is_file():
        print(f"no girthforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # No bytecode files: the checkout stays clean and every set-up compiles
    # the program alike, so the first run's set-up is not an outlier.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    cores = str(len(os.sched_getaffinity(0)))
    env.update({var: cores for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace)]

    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"worker exceeded {WORKER_TIMEOUT_S}s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(out.decode().strip().splitlines()[-1])

    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = report["layers"]
    else:
        metrics = {"setup_s": (report["setup_done"] - spawned, "s"),
                   "job_s": (report["job_s"], "s"),
                   "peak_rss_mb": (report["peak_rss_mb"], "MB")}
    print(f"{args.workload} seed={args.seed}: {report['rounds']} round(s) of "
          + ", ".join(f"{t:.3f}" for t in report["round_s"]) + " s")
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
