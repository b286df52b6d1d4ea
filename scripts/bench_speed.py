#!/usr/bin/env python3
"""Measure simulator throughput and track it in ``BENCH_speed.json``.

Usage::

    python scripts/bench_speed.py                       # full grid
    python scripts/bench_speed.py --quick               # CI smoke subset
    python scripts/bench_speed.py --baseline BENCH_speed.json \
        --max-regression 0.25                           # regression gate

Times the steady-state cycle loop (construction and warm-up excluded)
over a (workload x engine x policy) grid, median of ``--repeats``
fresh-simulator runs per cell, and reports kilo-simulated-cycles and
kilo-committed-instructions per wall-clock second.  The report is
written to ``--output`` (default ``BENCH_speed.json``).

With ``--baseline FILE`` the report gains a ``speedup`` section
(this run vs. the baseline's cells, matched by grid key).  With
``--max-regression R`` the process exits non-zero when the geometric
mean of the per-cell speedups falls below ``1 - R`` — the CI perf-smoke
gate.  Absolute throughput is machine-dependent; the gate compares
runs on the *same* machine (CI baseline vs. CI run), while the numbers
committed in ``BENCH_speed.json`` document one reference machine.
"""

import argparse
import json
import sys
import time

from repro.perf import BENCH_GRID, QUICK_GRID, run_bench, speedup_vs
from repro.perf.bench import DEFAULT_CYCLES, DEFAULT_REPEATS, DEFAULT_WARMUP


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Simulator-throughput microbenchmark.")
    parser.add_argument("--quick", action="store_true",
                        help="small grid + short windows (CI smoke)")
    parser.add_argument("--cycles", type=int, default=None,
                        help=f"timed cycles per repetition (default: "
                             f"{DEFAULT_CYCLES}; --quick: 2000)")
    parser.add_argument("--warmup", type=int, default=None,
                        help=f"untimed warm-up cycles (default: "
                             f"{DEFAULT_WARMUP}; --quick: 1000)")
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"timed repetitions per cell, median "
                             f"reported (default: {DEFAULT_REPEATS})")
    parser.add_argument("--output", "-o", default="BENCH_speed.json",
                        help="report path (default: BENCH_speed.json; "
                             "'-' for stdout only)")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="previous report to compute speedups "
                             "against")
    parser.add_argument("--against", choices=("cells", "baseline"),
                        default="cells",
                        help="which section of the --baseline file to "
                             "compare with: its own measurements "
                             "('cells', default) or the pre-PR numbers "
                             "embedded under its 'baseline' key")
    parser.add_argument("--max-regression", type=float, default=None,
                        metavar="R",
                        help="exit non-zero when the geomean speedup vs "
                             "--baseline is below 1-R (e.g. 0.25)")
    args = parser.parse_args(argv)
    if args.cycles is None:
        args.cycles = 2_000 if args.quick else DEFAULT_CYCLES
    if args.warmup is None:
        args.warmup = 1_000 if args.quick else DEFAULT_WARMUP
    if args.repeats is None:
        args.repeats = DEFAULT_REPEATS
    if args.cycles < 1 or args.warmup < 0 or args.repeats < 1:
        parser.error("--cycles/--repeats must be >= 1 and --warmup >= 0")
    if args.max_regression is not None and args.baseline is None:
        parser.error("--max-regression requires --baseline")
    return args


def main(argv=None) -> None:
    args = parse_args(argv)
    grid = QUICK_GRID if args.quick else BENCH_GRID

    def progress(record: dict) -> None:
        print(f"[bench_speed] {record['workload']}/{record['engine']}/"
              f"{record['policy']}: {record['kcycles_per_sec']:.1f} "
              f"kcycles/s, {record['kinstr_per_sec']:.1f} kinstr/s",
              file=sys.stderr)

    t0 = time.time()
    report = run_bench(grid, cycles=args.cycles, warmup=args.warmup,
                       repeats=args.repeats, progress=progress)
    print(f"[bench_speed] geomean "
          f"{report['geomean_kcycles_per_sec']:.1f}"
          f" kcycles/s over {len(report['cells'])} cell(s) "
          f"({time.time() - t0:.0f} s)", file=sys.stderr)

    if args.baseline is not None:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        if args.against == "baseline":
            if "baseline" not in baseline:
                raise SystemExit(
                    f"bench_speed: {args.baseline} has no embedded "
                    f"'baseline' section (it was written without "
                    f"--baseline); use --against cells")
            baseline = baseline["baseline"]
        report["speedup"] = speedup_vs(report, baseline)
        # Embed the baseline cells so the artifact is self-contained:
        # the committed BENCH_speed.json documents both sides of every
        # speedup it claims.
        report["baseline"] = {
            "cells": baseline.get("cells", []),
            "geomean_kcycles_per_sec":
                baseline.get("geomean_kcycles_per_sec"),
            "meta": baseline.get("meta", {}),
        }
        print(f"[bench_speed] geomean speedup vs {args.baseline}: "
              f"{report['speedup']['geomean']:.2f}x", file=sys.stderr)

    rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output == "-":
        sys.stdout.write(rendered)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        print(f"[bench_speed] report written to {args.output}",
              file=sys.stderr)

    if args.max_regression is not None:
        floor = 1.0 - args.max_regression
        speedup = report["speedup"]["geomean"]
        if not report["speedup"]["per_cell"]:
            raise SystemExit("bench_speed: --baseline shares no grid "
                             "cells with this run")
        if speedup < floor:
            raise SystemExit(
                f"bench_speed: geomean throughput {speedup:.2f}x of "
                f"baseline, below the {floor:.2f}x regression floor")


if __name__ == "__main__":
    main()
