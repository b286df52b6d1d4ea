#!/usr/bin/env python3
"""Run a declarative design-space sweep and emit a report.

Usage::

    python scripts/run_sweep.py --preset policy_width --seeds 3 --jobs 4
    python scripts/run_sweep.py --axis ftq_depth=1,2,4,8 \
        --axis workload=2_MIX --baseline ftq_depth=1 --format csv
    python scripts/run_sweep.py --list-presets

A sweep is either a shipped preset (``--preset``; see
``--list-presets``) or built from ``--axis key=v1,v2,...`` flags — any
of ``workload``, ``engine``, ``policy``, ``seed`` or a ``SimConfig``
field (``ftq_depth``, ``cache_banks``, ``l2_kb``, ...).  ``--axis`` on
top of a preset overrides that axis.  Reserved axes a sweep does not
declare run at workload=2_MIX, engine=stream, policy=ICOUNT.1.8 and
are echoed in every report's ``fixed`` section.  ``--seeds N`` replicates every
design point over seeds ``0..N-1`` and the report aggregates them into
mean / stdev / 95% CI, plus speedup against the ``--baseline`` design
point (default: the first value of every axis).

All cells execute through one content-addressed
:class:`~repro.experiments.ExperimentSession` — parallel across
``--jobs`` processes on cold cache, zero simulations on warm cache.
Reports (``--format md|csv|json``) are deterministic, so a warm re-run
reproduces them byte-for-byte; execution accounting goes to stderr.

Every run plans a **campaign** (see :mod:`repro.campaign`): the grid
is content-hashed into a campaign id (printed to stderr and stamped
into every report), and with a persistent cache the campaign state —
manifest + durable cell queue — lives under ``--campaign-dir``
(default: ``<cache-dir>/campaigns``).  ``--plan-only`` writes that
state and prints the id without executing, so external
``scripts/campaign_worker.py`` processes can drain the queue;
``--resume <id>`` asserts this invocation continues that exact
campaign.  ``--verify-cache`` audits every cache entry up front,
quarantining corrupt ones.
"""

import argparse
import sys
import time
from pathlib import Path

from repro.campaign import StaleCampaignError
from repro.experiments import ExperimentSession
from repro.experiments.cache import DEFAULT_CACHE_DIR
from repro.experiments.session import DEFAULT_CYCLES
from repro.obs.logging_setup import add_logging_args, setup_from_args
from repro.perf.profiling import maybe_profiled
from repro.resilience import CellExecutionError
from repro.sweeps import (
    FORMATTERS,
    PRESETS,
    SweepSpec,
    coerce_axis_value,
    run_sweep,
    validate_axis,
)
from repro.sweeps.run import expand_cells


def parse_axis_flag(flag: str) -> tuple[str, tuple]:
    """Split one ``--axis key=v1,v2,...`` flag into (axis, values)."""
    if "=" not in flag:
        raise ValueError(
            f"--axis expects key=v1,v2,..., got {flag!r}")
    axis, _, rest = flag.partition("=")
    axis = validate_axis(axis.strip())
    values = tuple(coerce_axis_value(axis, token.strip())
                   for token in rest.split(",") if token.strip())
    if not values:
        raise ValueError(f"--axis {axis} lists no values")
    return axis, values


def parse_baseline_flag(flags: list[str]) -> dict:
    """Merge ``--baseline key=value`` flags into a design point."""
    baseline = {}
    for flag in flags:
        if "=" not in flag:
            raise ValueError(
                f"--baseline expects key=value, got {flag!r}")
        axis, _, value = flag.partition("=")
        axis = validate_axis(axis.strip())
        baseline[axis] = coerce_axis_value(axis, value.strip())
    return baseline


def build_spec(args: argparse.Namespace) -> SweepSpec:
    """Resolve preset / --axis / --seeds / --baseline into one spec."""
    if args.preset is not None:
        spec = PRESETS[args.preset]
    elif args.axis:
        spec = None
    else:
        raise ValueError("nothing to sweep: pass --preset or --axis "
                         "(see --list-presets)")

    axes = dict(spec.axes) if spec is not None else {}
    for flag in args.axis:
        axis, values = parse_axis_flag(flag)
        axes[axis] = values

    if args.baseline:
        # Explicit pins validate strictly: a typo'd value must error,
        # not silently fall back to a different denominator.
        baseline = parse_baseline_flag(args.baseline)
    else:
        # Inherited preset pins, by contrast, may have been invalidated
        # by an --axis override; drop the stale ones.
        baseline = {axis: value
                    for axis, value in (dict(spec.baseline) if spec
                                        is not None else {}).items()
                    if axis in axes and value in axes[axis]}

    merged = SweepSpec.of(
        args.preset or "custom", axes,
        cycles=args.cycles,
        warmup=args.warmup if args.warmup is not None
        else (spec.warmup if spec is not None else None),
        base_config=spec.base_config if spec is not None else None,
        baseline=baseline,
        metric=args.metric or (spec.metric if spec is not None
                               else "ipc"),
        description=spec.description if spec is not None else "")
    if args.seeds is not None:
        merged = merged.with_seeds(args.seeds)
    return merged


def list_presets() -> None:
    for name, spec in PRESETS.items():
        axes = " x ".join(f"{axis}[{len(values)}]"
                          for axis, values in spec.axes)
        print(f"{name:16s} {axes}  ({spec.n_cells()} cells)")
        print(f"{'':16s} {spec.description}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Declarative design-space sweeps over the simulator.")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        default=None, help="shipped sweep to run")
    parser.add_argument("--list-presets", action="store_true",
                        help="describe the shipped presets and exit")
    parser.add_argument("--axis", action="append", default=[],
                        metavar="KEY=V1,V2,...",
                        help="add/override one sweep axis (repeatable)")
    parser.add_argument("--seeds", type=int, default=None,
                        help="replicate every design point over seeds "
                             "0..N-1")
    parser.add_argument("--baseline", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="pin the speedup-baseline design point "
                             "(repeatable; default: first value of "
                             "every axis)")
    parser.add_argument("--metric", choices=("ipc", "ipfc"), default=None,
                        help="primary aggregated metric (default: the "
                             "preset's, else ipc)")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes for uncached cells "
                             "(default: 1)")
    parser.add_argument("--cycles", type=int, default=DEFAULT_CYCLES,
                        help=f"measured cycles per cell (default: "
                             f"{DEFAULT_CYCLES})")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warm-up cycles per cell (default: the "
                             "config's warmup_cycles)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="persistent result cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent cache")
    parser.add_argument("--campaign-dir", default=None, metavar="DIR",
                        help="root for durable campaign state "
                             "(manifest + cell queue; default: "
                             "<cache-dir>/campaigns, or ephemeral "
                             "with --no-cache)")
    parser.add_argument("--resume", default=None, metavar="CAMPAIGN_ID",
                        help="require this invocation to continue the "
                             "given campaign (error if the planned "
                             "grid hashes to a different id)")
    parser.add_argument("--plan-only", action="store_true",
                        help="plan the campaign (manifest + queue "
                             "under --campaign-dir), print its id to "
                             "stdout and exit without simulating")
    parser.add_argument("--verify-cache", action="store_true",
                        help="before running, validate every cache "
                             "entry and quarantine corrupt ones")
    parser.add_argument("--prune-cache", type=int, default=None,
                        metavar="MAX_ENTRIES",
                        help="after the run, evict the oldest cache "
                             "entries beyond this budget")
    parser.add_argument("--cache-budget", type=int, default=None,
                        metavar="MAX_ENTRIES",
                        help="auto-prune the cache to this many entries "
                             "when the session closes (maintenance "
                             "policy; unbounded by default)")
    parser.add_argument("--retries", type=int, default=0,
                        help="re-execute a failing cell up to N extra "
                             "times before recording it failed "
                             "(default: 0)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per cell execution; a "
                             "hung cell is killed and retried "
                             "(default: unlimited)")
    parser.add_argument("--strict", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="abort the sweep on the first cell that "
                             "exhausts its retries instead of emitting "
                             "a partial report (default: --no-strict — "
                             "report with failures marked, exit 3)")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top-25 "
                             "cumulative entries to stderr")
    parser.add_argument("--format", dest="fmt",
                        choices=sorted(FORMATTERS), default="md",
                        help="report format (default: md)")
    parser.add_argument("--output", "-o", default=None,
                        help="write the report here instead of stdout")
    add_logging_args(parser)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        parser.error(f"--cell-timeout must be > 0, got "
                     f"{args.cell_timeout}")
    if args.prune_cache is not None and args.no_cache:
        parser.error("--prune-cache is meaningless with --no-cache")
    if args.cache_budget is not None and args.no_cache:
        parser.error("--cache-budget is meaningless with --no-cache")
    if args.verify_cache and args.no_cache:
        parser.error("--verify-cache is meaningless with --no-cache")
    if args.campaign_dir is None and not args.no_cache:
        args.campaign_dir = str(Path(args.cache_dir) / "campaigns")
    if args.plan_only and args.campaign_dir is None:
        parser.error("--plan-only needs a --campaign-dir (an ephemeral "
                     "plan has nobody to execute it)")
    if args.resume is not None and args.campaign_dir is None:
        parser.error("--resume needs a --campaign-dir (ephemeral "
                     "campaigns leave nothing to resume)")
    return args


def run(args) -> None:

    try:
        spec = build_spec(args)
    except (KeyError, ValueError) as exc:
        # Spec errors (unknown workload/axis/policy, bad baseline) are
        # user errors: report the message, not a traceback.
        message = exc.args[0] if exc.args else str(exc)
        raise SystemExit(f"run_sweep: {message}") from None

    session = ExperimentSession(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        cycles=spec.cycles if spec.cycles is not None else DEFAULT_CYCLES,
        warmup=spec.warmup,
        cache_budget_entries=args.cache_budget,
        retries=args.retries, cell_timeout=args.cell_timeout,
        strict=args.strict,
        campaign_dir=args.campaign_dir)

    if args.verify_cache:
        audit = session.disk.verify()
        print(f"[run_sweep] cache verify: {audit['checked']} checked, "
              f"{audit['healthy']} healthy, {audit['quarantined']} "
              f"quarantined", file=sys.stderr)

    # The plan names the campaign before anything executes, so a
    # mismatched --resume aborts without simulating a single cell.
    planned = session.plan([cell for _, cell
                            in expand_cells(spec, session)]).info
    if args.resume is not None and planned.campaign_id != args.resume:
        raise SystemExit(
            f"run_sweep: --resume {args.resume} does not match this "
            f"invocation's grid (plans to campaign "
            f"{planned.campaign_id}); re-run with the original flags "
            "or drop --resume")
    print(f"[run_sweep] campaign {planned.campaign_id} "
          f"({planned.cells} distinct cells, {planned.pending} to "
          f"simulate)", file=sys.stderr)
    if args.plan_only:
        info = session.plan_campaign([cell for _, cell
                                      in expand_cells(spec, session)])
        print(f"[run_sweep] campaign planned under "
              f"{args.campaign_dir}/{info.campaign_id} — drain it with "
              "scripts/campaign_worker.py", file=sys.stderr)
        print(info.campaign_id)
        session.close()
        return

    t0 = time.time()
    print(f"[run_sweep] {spec.name}: {spec.n_cells()} cell(s), "
          f"jobs={args.jobs}", file=sys.stderr)
    try:
        result = run_sweep(spec, session)
    except KeyError as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise SystemExit(f"run_sweep: {message}") from None
    except CellExecutionError as exc:
        raise SystemExit(f"run_sweep: {exc}\n(use --no-strict for a "
                         "partial report, --retries/--cell-timeout to "
                         "recover flaky cells)") from None
    print(f"[run_sweep] {session.summary()} "
          f"({time.time() - t0:.0f} s)", file=sys.stderr)

    report = FORMATTERS[args.fmt](result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"[run_sweep] report written to {args.output}",
              file=sys.stderr)
    else:
        sys.stdout.write(report)

    if args.prune_cache is not None and session.disk is not None:
        removed = session.disk.prune(max_entries=args.prune_cache)
        stats = session.disk.stats()
        print(f"[run_sweep] cache pruned: {removed} entry(ies) evicted, "
              f"{stats['entries']} kept ({stats['bytes']} bytes)",
              file=sys.stderr)

    removed = session.close()
    if removed:
        print(f"[run_sweep] cache budget: {removed} entry(ies) evicted "
              f"on close", file=sys.stderr)

    if result.failures:
        # Partial-results mode: the report is written (with failures
        # marked) but the run as a whole must not look healthy to
        # scripts and CI — exit 3 distinguishes "degraded" from both
        # success (0) and usage errors (2).
        print(f"[run_sweep] WARNING: {len(result.failures)} cell(s) "
              "failed after retries; report is partial",
              file=sys.stderr)
        raise SystemExit(3)


def main(argv=None) -> None:
    args = parse_args(argv)
    setup_from_args(args)
    if args.list_presets:
        list_presets()
        return
    try:
        maybe_profiled(lambda: run(args), enabled=args.profile)
    except KeyboardInterrupt as exc:
        # A drained campaign interrupt carries its own resume hint;
        # a bare ^C at least names the standard exit code.
        detail = f": {exc}" if exc.args else ""
        print(f"run_sweep: interrupted{detail}", file=sys.stderr)
        raise SystemExit(130) from None
    except StaleCampaignError as exc:
        raise SystemExit(f"run_sweep: {exc}") from None


if __name__ == "__main__":
    main()
