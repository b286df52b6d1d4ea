"""One front end for the campaign CLIs.

``scripts/run_sweep.py`` and ``scripts/run_experiments.py`` differ
only in the grid they plan and the report they render.  Everything
around that is defined here once: the planning flags and their
checks, the session they describe, the plan / ``--resume`` /
``--plan-only`` step, the end of a run (``--prune-cache``, close,
exit 3 on a partial report) and ``main``'s ``--profile``, interrupt
and stale-campaign handling.  ``scripts/campaign_worker.py`` takes
its cache and timeout flags, and every CLI its range checks
(:func:`bounded`), from here too.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.campaign import StaleCampaignError
from repro.experiments.cache import DEFAULT_CACHE_DIR
from repro.experiments.session import (
    DEFAULT_CYCLES,
    CampaignInfo,
    ExperimentSession,
)
from repro.obs.logging_setup import add_logging_args, setup_from_args
from repro.resilience.policy import CellExecutionError

PROFILE_TOP = 25
"""Entries ``--profile`` prints from the cumulative-time ranking."""


def bounded(cast, low, *, inclusive: bool = True):
    """An argparse ``type``: ``cast(text)``, refused below ``low``.

    With ``inclusive=False`` ``low`` itself is refused too.  A refused
    value is a usage error (exit 2) that names the flag.
    """
    def parse(text: str):
        value = cast(text)
        if value < low or (value == low and not inclusive):
            raise argparse.ArgumentTypeError(
                f"must be {'>=' if inclusive else '>'} {low}, got {value}")
        return value
    parse.__name__ = cast.__name__      # argparse: "invalid int value"
    return parse


def add_cache_args(parser: argparse.ArgumentParser) -> None:
    """Declare ``--cache-dir``, ``--no-cache`` and ``--cell-timeout``."""
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="persistent result cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")
    parser.add_argument("--cell-timeout", default=None,
                        type=bounded(float, 0, inclusive=False),
                        metavar="SECONDS",
                        help="wall-clock budget per cell attempt, run "
                             "in an isolated child process; a hung "
                             "cell is killed and retried (default: "
                             "unlimited, in-process)")


def add_campaign_args(parser: argparse.ArgumentParser, *,
                      strict: bool) -> None:
    """Declare the planning flags; ``strict`` is the CLI's default."""
    parser.add_argument("--jobs", "-j", type=bounded(int, 1), default=1,
                        help="worker processes for uncached cells "
                             "(default: 1)")
    parser.add_argument("--cycles", type=int, default=DEFAULT_CYCLES,
                        help=f"measured cycles per cell (default: "
                             f"{DEFAULT_CYCLES})")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warm-up cycles per cell (default: the "
                             "config's warmup_cycles)")
    add_cache_args(parser)
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
    parser.add_argument("--prune-cache", type=bounded(int, 0), default=None,
                        metavar="MAX_ENTRIES",
                        help="after the report is written, evict the "
                             "oldest cache entries beyond this budget")
    parser.add_argument("--retries", type=bounded(int, 0), default=0,
                        help="re-execute a failing cell up to N extra "
                             "times, immediately, before recording it "
                             "failed (default: 0)")
    parser.add_argument("--strict", action=argparse.BooleanOptionalAction,
                        default=strict,
                        help="abort on the first cell that exhausts its "
                             "retries; --no-strict writes a partial "
                             "report with the failures marked and "
                             "exits 3 (default: "
                             f"{'--strict' if strict else '--no-strict'})")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top-"
                             f"{PROFILE_TOP} cumulative entries to "
                             "stderr")
    add_logging_args(parser)


def parse_campaign_args(parser: argparse.ArgumentParser,
                        argv=None) -> argparse.Namespace:
    """Parse ``argv`` and check the planning flags together (exit 2)."""
    args = parser.parse_args(argv)
    if args.no_cache and args.prune_cache is not None:
        parser.error("--prune-cache is meaningless with --no-cache")
    if args.no_cache and args.verify_cache:
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


def open_session(prog: str, args: argparse.Namespace, *,
                 warmup: int | None = None) -> ExperimentSession:
    """The session the flags describe, cache verified if asked.

    ``warmup`` overrides ``--warmup`` (a sweep preset brings its own).
    ``--prune-cache`` becomes the session's close-time budget, so the
    cache is pruned once, after the report; a ``--plan-only`` run
    never prunes, because that could evict cells the plan just
    counted as cached.
    """
    session = ExperimentSession(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        cycles=args.cycles,
        warmup=args.warmup if warmup is None else warmup,
        cache_budget_entries=None if args.plan_only
        else args.prune_cache,
        retries=args.retries, cell_timeout=args.cell_timeout,
        strict=args.strict,
        campaign_dir=args.campaign_dir)
    if args.verify_cache:
        audit = session.disk.verify()
        print(f"[{prog}] cache verify: {audit['checked']} checked, "
              f"{audit['healthy']} healthy, {audit['quarantined']} "
              f"quarantined", file=sys.stderr)
    return session


def plan(prog: str, session: ExperimentSession, args: argparse.Namespace,
         cells) -> CampaignInfo | None:
    """Name the campaign, then honour ``--resume`` and ``--plan-only``.

    The plan names the campaign before anything executes, so a
    mismatched ``--resume`` aborts without simulating a single cell.
    Returns the campaign's provenance, or ``None`` once ``--plan-only``
    has persisted the campaign and printed its id: the run is over.
    """
    info = session.plan(cells).info
    if args.resume is not None and info.campaign_id != args.resume:
        raise SystemExit(
            f"{prog}: --resume {args.resume} does not match this "
            f"invocation's grid (plans to campaign {info.campaign_id}); "
            "re-run with the original flags or drop --resume")
    print(f"[{prog}] campaign {info.campaign_id} ({info.cells} distinct "
          f"cells, {info.pending} to simulate)", file=sys.stderr)
    if not args.plan_only:
        return info
    session.plan_campaign(cells)
    print(f"[{prog}] campaign planned under {args.campaign_dir}/"
          f"{info.campaign_id} — drain it with "
          "scripts/campaign_worker.py", file=sys.stderr)
    print(info.campaign_id)
    return None


@contextmanager
def strict_abort(prog: str):
    """Turn a strict-mode cell failure into a clean exit message."""
    try:
        yield
    except CellExecutionError as exc:
        raise SystemExit(f"{prog}: {exc}\n(use --no-strict for a "
                         "partial report, --retries/--cell-timeout to "
                         "recover flaky cells)") from None


def finish(prog: str, session: ExperimentSession,
           args: argparse.Namespace) -> None:
    """Prune and close after the report; exit 3 if it is partial."""
    removed = session.close()
    if args.prune_cache is not None:
        stats = session.disk.stats()
        print(f"[{prog}] cache pruned: {removed} entry(ies) evicted, "
              f"{stats['entries']} kept ({stats['bytes']} bytes)",
              file=sys.stderr)
    if session.failures:
        # Partial-results mode: the report is written (with failures
        # marked) but the run as a whole must not look healthy to
        # scripts and CI — exit 3 distinguishes "degraded" from both
        # success (0) and usage errors (2).
        print(f"[{prog}] WARNING: {len(session.failures)} cell(s) "
              "failed after retries; report is partial", file=sys.stderr)
        raise SystemExit(3)


def main(prog: str, args: argparse.Namespace, run) -> None:
    """Call ``run()``, under cProfile with ``--profile``.

    An interrupt exits 130 and a campaign directory planned by an
    incompatible version exits 1, each with a message, not a
    traceback.
    """
    setup_from_args(args)
    try:
        if args.profile:
            _profiled(run)
        else:
            run()
    except KeyboardInterrupt as exc:
        # A drained campaign interrupt carries its own resume hint;
        # a bare ^C at least names the standard exit code.
        detail = f": {exc}" if exc.args else ""
        print(f"{prog}: interrupted{detail}", file=sys.stderr)
        raise SystemExit(130) from None
    except StaleCampaignError as exc:
        raise SystemExit(f"{prog}: {exc}") from None


def _profiled(run) -> None:
    """Run ``run()`` under cProfile; print the ranking even if it dies."""
    # Imported here so that a run without --profile does not load them.
    import cProfile
    import pstats
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
        pstats.Stats(profiler, stream=sys.stderr) \
            .sort_stats("cumulative").print_stats(PROFILE_TOP)
