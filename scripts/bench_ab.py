#!/usr/bin/env python3
"""Interleaved A/B benchmark: this tree vs a baseline checkout.

Usage::

    git worktree add /tmp/preopt <baseline-commit>
    cp -r src/repro/perf /tmp/preopt/src/repro/   # harness for old tree
    python scripts/bench_ab.py --baseline-tree /tmp/preopt \
        --reps 5 -o BENCH_speed.json

Absolute throughput on a shared machine drifts on timescales of a
single grid pass, so measuring "before" and "after" in two separate
blocks biases the ratio by whatever the machine was doing meanwhile.
This driver alternates full-grid passes between the two trees
(subprocess per pass, one timed repetition per cell) and takes the
per-cell **median across passes**, so drift hits both sides equally.
The committed ``BENCH_speed.json`` is produced by this protocol; its
``meta.protocol`` field records it.

The baseline tree only needs the ``repro`` package plus
``repro.perf`` (copy it in when benchmarking a commit that predates
the harness, as above).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HEAD_TREE = os.path.dirname(HERE)

# The ``python -c`` payload for one measurement pass.
_RUN_ONE = (
    "import json,sys;"
    "from repro.perf.bench import run_bench, BENCH_GRID;"
    "json.dump(run_bench(BENCH_GRID, repeats=1), sys.stdout)")


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def one_pass(tree: str) -> dict:
    """One full-grid measurement pass in a subprocess rooted at ``tree``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    out = subprocess.run([sys.executable, "-c", _RUN_ONE],
                         capture_output=True, text=True, cwd=tree, env=env)
    if out.returncode != 0:
        raise SystemExit(f"bench_ab: pass in {tree} failed:\n"
                         f"{out.stderr[-2000:]}")
    return json.loads(out.stdout)


def combine(passes: list[dict], reps: int) -> dict:
    """Per-cell medians across passes, in bench_speed report shape."""
    cells = []
    for i, cell in enumerate(passes[0]["cells"]):
        cells.append({
            **cell,
            "kcycles_per_sec": statistics.median(
                p["cells"][i]["kcycles_per_sec"] for p in passes),
            "kinstr_per_sec": statistics.median(
                p["cells"][i]["kinstr_per_sec"] for p in passes),
            "seconds_median": statistics.median(
                p["cells"][i]["seconds_median"] for p in passes),
        })
    return {
        "cells": cells,
        "geomean_kcycles_per_sec": geomean(
            c["kcycles_per_sec"] for c in cells),
        "geomean_kinstr_per_sec": geomean(
            c["kinstr_per_sec"] for c in cells),
        "meta": {**passes[0]["meta"], "repeats": reps,
                 "protocol": f"interleaved A/B, median of {reps} "
                             f"alternating runs"},
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Interleaved A/B simulator-throughput comparison.")
    parser.add_argument("--baseline-tree", required=True,
                        help="checkout of the baseline commit (with "
                             "repro.perf available on its src/)")
    parser.add_argument("--head-tree", default=HEAD_TREE,
                        help="checkout under test (default: this repo)")
    parser.add_argument("--reps", type=int, default=5,
                        help="alternating full-grid passes per side "
                             "(default: 5)")
    parser.add_argument("--output", "-o", default="BENCH_speed.json")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error(f"--reps must be >= 1, got {args.reps}")

    passes = {"base": [], "head": []}
    for rep in range(args.reps):
        for side, tree in (("base", args.baseline_tree),
                           ("head", args.head_tree)):
            result = one_pass(tree)
            passes[side].append(result)
            print(f"[bench_ab] rep {rep} {side}: "
                  f"{result['geomean_kcycles_per_sec']:.1f} kcycles/s",
                  file=sys.stderr)

    head = combine(passes["head"], args.reps)
    base = combine(passes["base"], args.reps)
    per_cell = {}
    for hc, bc in zip(head["cells"], base["cells"]):
        label = f"{hc['workload']}/{hc['engine']}/{hc['policy']}"
        per_cell[label] = hc["kcycles_per_sec"] / bc["kcycles_per_sec"]
    report = {
        **head,
        "speedup": {"geomean": geomean(per_cell.values()),
                    "per_cell": dict(sorted(per_cell.items()))},
        "baseline": base,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[bench_ab] geomean speedup "
          f"{report['speedup']['geomean']:.2f}x -> {args.output}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
