"""Golden-parity contract for hot-path optimisations.

The cycle loop is performance-critical *and* the substrate of every
measured number in the repo, so optimisations must be provably
behaviour-preserving.  This module pins that contract: a fixed grid of
(workload, engine, policy, seed) cells whose complete
:meth:`~repro.core.metrics.SimResult.to_dict` output — every counter,
not just IPC — is rendered to canonical JSON and compared byte-for-byte
against a committed fixture (``tests/perf/golden_parity.json``).

Check the simulator against the committed fixture with::

    PYTHONPATH=src python -m repro.perf.parity \
        --check tests/perf/golden_parity.json

(CI's ``golden-parity`` job runs exactly this.)

Any change that alters a simulated outcome fails the parity test and
must regenerate the fixture **in the same commit**, bumping
``repro.experiments.cache.CACHE_FORMAT_VERSION`` so stale cache entries
miss instead of serving pre-change results::

    PYTHONPATH=src python -m repro.perf.parity > tests/perf/golden_parity.json
"""

from __future__ import annotations

import json

from repro.core.config import SimConfig
from repro.core.simulator import simulate

PARITY_CYCLES = 1_200
PARITY_WARMUP = 600

PARITY_CELLS: tuple[tuple[str, str, str, int], ...] = tuple(
    (workload, engine, policy, 0)
    for workload in ("2_MIX", "4_MIX")
    for engine in ("gshare+BTB", "gskew+FTB", "stream")
    for policy in ("ICOUNT.1.8", "ICOUNT.2.8")
) + (
    # Seed sensitivity: different programs, same machine.
    ("2_ILP", "stream", "ICOUNT.2.8", 1),
    ("4_MEM", "gshare+BTB", "ICOUNT.2.8", 1),
    # RR exercises the non-ICOUNT ordering path.
    ("2_MIX", "stream", "RR.2.8", 0),
)
"""The pinned grid: both fetch generations, all engines, 2/4 threads."""


def parity_label(workload: str, engine: str, policy: str,
                 seed: int) -> str:
    """Stable fixture key for one cell."""
    return f"{workload}/{engine}/{policy}/seed{seed}"


def collect_parity(cells=PARITY_CELLS, cycles: int = PARITY_CYCLES,
                   warmup: int = PARITY_WARMUP) -> dict[str, dict]:
    """Simulate every pinned cell; returns {label: SimResult.to_dict()}."""
    results: dict[str, dict] = {}
    for workload, engine, policy, seed in cells:
        config = SimConfig(seed=seed)
        result = simulate(workload, engine=engine, policy=policy,
                          cycles=cycles, config=config, warmup=warmup)
        results[parity_label(workload, engine, policy, seed)] = \
            result.to_dict()
    return results


def canonical_json(results: dict[str, dict]) -> str:
    """The byte-exact rendering the parity test compares."""
    return json.dumps(results, sort_keys=True, indent=1) + "\n"


def main(argv=None) -> None:
    """CLI: emit the fixture, or check the simulator against one."""
    import argparse
    import sys
    from pathlib import Path

    parser = argparse.ArgumentParser(
        description="Golden-parity fixture generator/checker.")
    parser.add_argument("--check", metavar="FIXTURE", default=None,
                        help="compare against this fixture file and "
                             "exit non-zero on any byte difference, "
                             "instead of printing to stdout")
    args = parser.parse_args(argv)

    got = canonical_json(collect_parity())
    if args.check is None:
        sys.stdout.write(got)
        return
    want = Path(args.check).read_text(encoding="utf-8")
    if got != want:
        raise SystemExit(
            f"parity FAILED: simulated results diverge from "
            f"{args.check} (regenerate the fixture only if the "
            f"behaviour change is intentional)")
    print(f"parity ok: simulated results match {args.check} "
          f"byte-for-byte", file=sys.stderr)


if __name__ == "__main__":
    main()
