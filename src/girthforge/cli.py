"""Command-line frontend: search, verification, distance, export, corpus.

Exit codes: 0 success, 1 usage/parse error, 2 search budget exceeded,
3 target infeasible by a structural bound, 4 verification failed (a
``verify-girth`` girth below ``--girth``, or a ``verify-corpus`` entry that
prints ``FAIL``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import catalog
from .girth import certified_girth
from .lifting import lift_circulant, lift_tailbiting
from .matrices import (FormatError, emit_alist, emit_degree_matrix,
                       parse_degree_matrix)
from .mindist import min_distance_bruteforce, min_distance_md
from .search import InfeasibleTarget, SearchConfig, TimeBudgetExceeded, search


def _load_degree_matrix(path: str):
    try:
        w = parse_degree_matrix(Path(path).read_bytes())
    except (OSError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    if w.modulus is None:
        print("error: degree matrix file carries no M= line", file=sys.stderr)
        raise SystemExit(1)
    return w


def cmd_search(args) -> int:
    try:
        cfg = SearchConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
        if args.jobs is not None:
            cfg = replace(cfg, jobs=args.jobs)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 1
    env_seed = os.environ.get("GIRTHFORGE_SEED")
    if env_seed is not None:
        try:
            cfg = replace(cfg, seed=int(env_seed))
        except ValueError:
            print(f"error: GIRTHFORGE_SEED={env_seed!r} is not a non-negative integer",
                  file=sys.stderr)
            return 1
    out = Path(args.output)
    t0 = time.time()
    try:
        out.mkdir(parents=True, exist_ok=True)  # refuses a bad output path before searching
        result = search(cfg)
    except (OSError, FormatError) as exc:  # that, or a "code" base file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a base the config names badly
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 1
    except InfeasibleTarget as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except TimeBudgetExceeded:
        print("budget exceeded", file=sys.stderr)
        return 2
    try:
        _write_result(out, result, cfg, time.time() - t0)
    except OSError as exc:  # the search is done: keep its result on stdout
        sys.stdout.write(emit_degree_matrix(result.degree))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"found M={result.m} girth={result.girth} after {result.attempts} attempts")
    return 0


def _write_result(out: Path, result, cfg: SearchConfig, wall: float) -> None:
    (out / "result.wm").write_text(emit_degree_matrix(result.degree), encoding="ascii")
    sidecar = {
        "m": result.m,
        "certified_girth": result.girth,
        "seed": result.seed,
        "attempts": result.attempts,
        "wall_secs": round(wall, 3),
        "girth_target": cfg.girth,
    }
    (out / "result.json").write_text(json.dumps(sidecar, indent=2), encoding="utf-8")


def cmd_verify_girth(args) -> int:
    w = _load_degree_matrix(args.file)
    h = lift_tailbiting(w, w.modulus)
    g = certified_girth(h, cap=args.cap)
    print(f"girth {g if g is not None else f'> {args.cap}'}")
    if args.girth is None:
        return 0
    ok = g is not None and g >= args.girth or (g is None and args.cap >= args.girth)
    return 0 if ok else 4


def cmd_min_distance(args) -> int:
    w = _load_degree_matrix(args.file)
    h = lift_tailbiting(w, w.modulus)
    res = min_distance_md(h, args.cap)
    print(f"d_min {res}")
    if args.oracle:
        try:
            bf = min_distance_bruteforce(h)
        except ValueError as exc:
            print(f"error: oracle unavailable: {exc}", file=sys.stderr)
            return 1
        # an exact value must match; a lower bound must not exceed the oracle
        if bf < res.value or res.exact and bf != res.value:
            print(f"error: oracle disagrees: {bf} {'!=' if res.exact else '<'} {res.value}",
                  file=sys.stderr)
            return 1
        print(f"oracle d_min {bf} (agrees)" if res.exact else f"oracle d_min {bf}")
    return 0


def cmd_export(args) -> int:
    w = _load_degree_matrix(args.file)
    if args.format == "tb":
        h = lift_tailbiting(w, w.modulus)
        text = _dense_text(h)
    elif args.format == "circulant":
        h = lift_circulant(w, w.modulus)
        text = _dense_text(h)
    else:
        layout = lift_circulant if args.layout == "circulant" else lift_tailbiting
        text = emit_alist(layout(w, w.modulus))
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="ascii")
        except OSError as exc:  # an output path that is a directory, or not writable
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def _dense_text(h) -> str:
    dense = h.to_dense()
    return "\n".join(" ".join(str(int(v)) for v in row) for row in dense) + "\n"


def cmd_verify_corpus(args) -> int:
    try:
        entries = catalog.load(Path(args.dir) if args.dir else catalog.CORPUS_DIR)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    entries = [e for e in entries if e.m <= args.max_m]
    if not entries:
        print("error: no corpus entry has m <= MAX_M", file=sys.stderr)
        return 1
    failures = 0
    for e in entries:
        h = lift_tailbiting(e.degree_matrix(), e.m)
        g = certified_girth(h, cap=max(32, e.girth + 2))
        ok = g == e.girth
        print(f"{'PASS' if ok else 'FAIL'} {e.name}: girth {g} (expected {e.girth}, n={e.n})")
        failures += 0 if ok else 1
    print(f"{len(entries) - failures}/{len(entries)} corpus entries verified")
    return 0 if failures == 0 else 4


def cmd_complexity(args) -> int:
    from .bases import all_ones_base
    from .girth import complexity_counts
    print("K  " + "  ".join(f"g={g}: N_T N_L" for g in args.girths))
    for k in range(args.k_min, args.k_max + 1):
        cells = []
        for g in args.girths:
            nt, nl = complexity_counts(all_ones_base(3, k), g)
            cells.append(f"{nt} {nl}")
        print(f"{k}  " + "  ".join(cells))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ``error: …`` with exit code 1."""

    def error(self, message):
        print(f"error: {self.prog}: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(lo: int, even: bool = False):
    def parse(text: str) -> int:
        if text.strip().isdecimal() and int(text) >= lo and not (even and int(text) % 2):
            return int(text)
        raise argparse.ArgumentTypeError(f"expected an {'even ' * even}integer >= {lo}, "
                                         f"got {text!r}")
    return parse


def _girths(text: str) -> list[int]:
    return [_int_at_least(4, even=True)(g) for g in text.split(",")]


def main(argv=None) -> int:
    parser = _Parser(
        prog="girthforge",
        description="search and verification for quasi-cyclic LDPC codes with large girth")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run a voltage-assignment search from a JSON config")
    p.add_argument("config")
    p.add_argument("-o", "--output", default="search-out")
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify-girth", help="certify the girth of a degree-matrix file")
    p.add_argument("file")
    p.add_argument("--girth", type=_int_at_least(4, even=True), default=None)
    p.add_argument("--cap", type=_int_at_least(4), default=32)
    p.set_defaults(func=cmd_verify_girth)

    p = sub.add_parser("min-distance", help="exact minimum distance of a degree-matrix file")
    p.add_argument("file")
    p.add_argument("--cap", type=_int_at_least(2), default=26)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with codeword enumeration (dimension <= 28)")
    p.set_defaults(func=cmd_min_distance)

    p = sub.add_parser("export", help="write the lifted parity-check matrix")
    p.add_argument("file")
    p.add_argument("--format", choices=("alist", "tb", "circulant"), default="alist")
    p.add_argument("--layout", choices=("tailbiting", "circulant"), default="tailbiting",
                   help="layout used for alist export")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("verify-corpus", help="re-certify the bundled catalog codes")
    p.add_argument("--dir", default=None)
    p.add_argument("--max-m", type=int, default=3000)
    p.set_defaults(func=cmd_verify_corpus)

    p = sub.add_parser("complexity", help="print reduced-tree and inequality counts")
    p.add_argument("--girths", type=_girths, default="8,10,12")
    p.add_argument("--k-min", type=_int_at_least(2), default=4)
    p.add_argument("--k-max", type=_int_at_least(2), default=12)
    p.set_defaults(func=cmd_complexity)

    args = parser.parse_args(argv)
    if args.command == "complexity" and args.k_min > args.k_max:
        parser.error(f"--k-min {args.k_min} exceeds --k-max {args.k_max}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
