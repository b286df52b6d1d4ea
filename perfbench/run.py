"""The repository's end-to-end benchmark.

Usage::

    python3 perfbench/run.py --workload paper-window --seed 0 \\
        --seconds 25 --trace 0

Runs one workload (see :mod:`perfbench.workloads`) from the root of a
checkout: set-up first, then iterations, one after another, until
``--seconds`` have passed.  Every output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured untraced:

* ``wall_s``: median host seconds of one iteration;
* ``setup_s``: host seconds of set-up: import plus program generation
  (median of five) on ``paper-window``, the median of five
  ``--plan-only`` runs on ``cold-sweep``, the cold run that fills the
  cache on ``warm-report``;
* ``sim_kcycles_per_s``: warm-up plus measured cycles of every cell an
  iteration delivers, per second of ``wall_s`` (on ``warm-report`` the
  cells come from the cache);
* ``peak_rss_mb``: peak resident memory of the timed process and its
  children (median over iterations for the CLI workloads);
* ``ok_frac``: operations that passed every check over operations
  attempted, i.e. ``1 - failed_frac`` (the summary prints
  ``failed_frac``); a failed cell, a non-zero exit and a failed output
  check each fail their operation;
* ``paper_err_pct``: mean ``|measured/paper - 1|`` over the 12 Section 3
  numbers, from the workload's own 2_MIX gshare+BTB cells.

``--trace 1`` alternates untraced and traced iterations and reports
the per-layer metrics of :mod:`perfbench.layers` from the traced ones,
plus ``trace.overhead_frac`` (traced / untraced median wall time - 1).

``--seed`` only shuffles the order of ``paper-window``'s grid.  It does
not choose programs, because what a run costs depends on the programs
far more than any affordable run can average out: over program seeds
0-19, the interquartile range of the cycle loop's cost is 0.3-0.5 of
its median, and of program generation's cost 0.35-0.45.  The programs
come from ``--program-seed`` instead (default 0, the paper's default):
it sets the program-generation seed of ``paper-window`` and the seed
axis (``seed, seed+1``) of ``cold-sweep``.  ``warm-report`` always runs
program seed 0, because ``run_experiments.py`` takes no seed.  Program
seed ``HELD_OUT_PROGRAM_SEED`` is kept out of tuning, for confirming
that a gain holds on other programs.

All scratch state (result caches, campaign directories, span files)
lives in a fresh directory under ``.perfbench-tmp/`` in the checkout
and is removed at exit; the repository's ``.repro-cache/`` is never
used.  ``--record`` writes this run's output digests into
``perfbench/expected.json`` as the recorded ones for the program seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402
from perfbench.workloads import EXPECTED, WORKLOADS, Context  # noqa: E402

HELD_OUT_PROGRAM_SEED = 1009
"""Program seed for confirming a gain on programs nobody tuned against."""

REQUIRED = ("src/repro", "scripts/run_sweep.py",
            "scripts/run_experiments.py")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "sim_kcycles_per_s":
             "kcycles/s", "peak_rss_mb": "MB", "ok_frac": "ratio",
             "paper_err_pct": "%"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--program-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digests as the "
                             "recorded ones for --program-seed")
    return parser.parse_args(argv)


def measure(workload, seconds: float, trace: bool):
    """Set up, then iterate for ``seconds``; returns walls and spans.

    Traced runs alternate untraced and traced iterations, starting
    untraced, and always end with at least one of each.
    """
    setup_s = workload.setup()
    walls: dict[bool, list[float]] = {False: [], True: []}
    recorder = Recorder()
    start = time.perf_counter()
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        walls[traced].append(workload.iterate(recorder if traced
                                              else None))
        if time.perf_counter() - start >= seconds \
                and (walls[True] or not trace):
            return setup_s, walls, recorder.spans


def end_to_end(workload, ctx: Context, setup_s: float,
               walls: list[float]) -> dict[str, float]:
    wall = statistics.median(walls)
    tally = ctx.tally
    return {
        "wall_s": wall,
        "setup_s": setup_s,
        "sim_kcycles_per_s": workload.cycles / wall / 1000,
        "peak_rss_mb": workload.peak_rss_mb(),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "paper_err_pct": workload.paper_err,
    }


def per_layer(workload, ctx: Context, walls: dict, spans) -> dict:
    metrics = layers.layer_metrics(spans, len(walls[True]))
    metrics["trace.overhead_frac"] = statistics.median(walls[True]) \
        / statistics.median(walls[False]) - 1
    silent = layers.unfired(metrics, workload.name)
    if silent:
        print(f"perfbench: SELF-CHECK FAILED: {', '.join(silent)} read 0 "
              f"on {workload.name}, which the mapping says exercises "
              "them (a probe never fired)", file=sys.stderr)
    ctx.tally.record("layer self-check",
                     [f"{name} never fired" for name in silent])
    return metrics


def report(args, ctx: Context, walls: dict, metrics: dict,
           units: dict) -> dict:
    """Print the human summary; return the result object."""
    from repro.perf.bench import host_metadata
    tally = ctx.tally
    print(f"host: {json.dumps(host_metadata(), sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, program seed "
          f"{args.program_seed}, "
          f"{len(walls[False])} untraced + {len(walls[True])} traced "
          f"iteration(s)")
    for name, value in metrics.items():
        note = f"  [{layers.describe(name)}]" if args.trace else ""
        print(f"  {name:32s} {value:14.6g} {units[name]}{note}")
    if args.trace:
        print("  wall_s medians: untraced "
              f"{statistics.median(walls[False]):.3f} s, traced "
              f"{statistics.median(walls[True]):.3f} s")
    else:
        print(f"  {'failed_frac':32s} {tally.failed / tally.attempted:14.6g}"
              f" ratio  ({tally.failed} of {tally.attempted} operations)")
        print(f"  wall_s is the median of {len(walls[False])} samples: "
              + " ".join(f"{w:.3f}" for w in walls[False]))
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def record(ctx: Context, workload: str) -> None:
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) \
        if EXPECTED.exists() else {}
    expected.setdefault(workload, {})[str(ctx.program_seed)] = \
        ctx.observed[workload]
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                        + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a repro checkout, missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch_root))
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    try:
        ctx = Context(ROOT, args.seed, args.program_seed, tmp,
                      expected={} if args.record else None)
        workload = WORKLOADS[args.workload](ctx)
        setup_s, walls, spans = measure(workload, args.seconds,
                                        bool(args.trace))
        if args.trace:
            metrics = per_layer(workload, ctx, walls, spans)
            metrics = {name: metrics[name] for name in layers.LAYERS}
            units = {name: layer["unit"]
                     for name, layer in layers.LAYERS.items()}
        else:
            metrics = end_to_end(workload, ctx, setup_s, walls[False])
            units = E2E_UNITS
        result = report(args, ctx, walls, metrics, units)
        if args.record and ctx.tally.failed == 0 \
                and args.workload in ctx.observed:
            record(ctx, args.workload)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
