"""Median-of-N simulator-throughput microbenchmark.

A bench cell is one (workload, engine, policy) combination.  Measurement
protocol, chosen to be robust on shared/noisy machines:

* the machine is **built and warmed outside the timed region** — we are
  measuring the steady-state cycle loop, not construction or warm-up;
* each cell is timed ``repeats`` times on a *fresh* simulator (so no
  run can inherit another's trained predictors) and the **median**
  elapsed time is reported;
* throughput is reported as kilo-simulated-cycles per wall-clock second
  (``kcps`` — the primary, workload-independent metric) and
  kilo-committed-instructions per second (``kips``).

The grid deliberately spans both fetch-unit generations (1.8 and 2.8
policies), all three engines and 2- and 4-thread workloads: those are
the axes the hot path branches on, so a regression in any specialised
path is visible in the geometric mean.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import time
from dataclasses import dataclass

from repro.backend import ReferenceBackend
from repro.core.config import SimConfig
from repro.core.workloads import WORKLOADS

DEFAULT_CYCLES = 5_000
"""Measured window per timed repetition."""

DEFAULT_WARMUP = 2_000
"""Untimed warm-up before each measurement."""

DEFAULT_REPEATS = 3
"""Timed repetitions per cell (median reported)."""

BENCH_ENGINES = ("gshare+BTB", "gskew+FTB", "stream")
BENCH_POLICIES = ("ICOUNT.1.8", "ICOUNT.2.8")


@dataclass(frozen=True)
class BenchCell:
    """One point of the throughput grid."""

    workload: str
    engine: str
    policy: str

    @property
    def label(self) -> str:
        """Stable identifier used as the JSON report key."""
        return f"{self.workload}/{self.engine}/{self.policy}"


BENCH_GRID: tuple[BenchCell, ...] = tuple(
    BenchCell(workload, engine, policy)
    for workload in ("2_MIX", "4_MIX")
    for engine in BENCH_ENGINES
    for policy in BENCH_POLICIES)
"""The tracked grid: 2- and 4-thread workloads x 3 engines x 2 policies."""

QUICK_GRID: tuple[BenchCell, ...] = tuple(
    BenchCell(workload, engine, "ICOUNT.2.8")
    for workload in ("2_MIX", "4_MIX")
    for engine in BENCH_ENGINES)
"""CI smoke subset: the simultaneous-fetch policy on every engine."""


def host_metadata() -> dict:
    """Interpreter and machine facts for benchmark provenance.

    Absolute throughput numbers are meaningless without knowing what
    ran them; this stamp makes every ``BENCH_speed.json`` say so.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def geomean(values) -> float:
    """Geometric mean (0.0 for an empty sequence)."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def measure_cell(cell: BenchCell, cycles: int = DEFAULT_CYCLES,
                 warmup: int = DEFAULT_WARMUP,
                 repeats: int = DEFAULT_REPEATS,
                 config: SimConfig | None = None) -> dict:
    """Time one cell; returns a JSON-safe measurement record.

    The timed region is exactly one ``advance`` call — construction,
    warm-up and result export stay outside the clock.
    """
    if cell.workload not in WORKLOADS:
        raise KeyError(f"unknown workload {cell.workload!r}")
    elapsed: list[float] = []
    committed = 0
    for _ in range(repeats):
        machine = ReferenceBackend(WORKLOADS[cell.workload],
                                   engine=cell.engine,
                                   policy=cell.policy, config=config,
                                   workload_name=cell.workload)
        machine.warm(warmup)
        t0 = time.perf_counter()
        machine.advance(cycles)
        elapsed.append(time.perf_counter() - t0)
        committed = machine.result().committed
    seconds = statistics.median(elapsed)
    return {
        "workload": cell.workload,
        "engine": cell.engine,
        "policy": cell.policy,
        "seconds_median": seconds,
        "kcycles_per_sec": cycles / seconds / 1e3,
        "kinstr_per_sec": committed / seconds / 1e3,
        "committed": committed,
    }


def run_bench(grid=BENCH_GRID, cycles: int = DEFAULT_CYCLES,
              warmup: int = DEFAULT_WARMUP,
              repeats: int = DEFAULT_REPEATS,
              config: SimConfig | None = None,
              progress=None) -> dict:
    """Measure every cell of ``grid``; returns the full report mapping.

    ``progress`` is an optional callable receiving each cell's record
    as it lands (the CLI uses it for live stderr output).
    """
    cells = []
    for cell in grid:
        record = measure_cell(cell, cycles=cycles, warmup=warmup,
                              repeats=repeats, config=config)
        cells.append(record)
        if progress is not None:
            progress(record)
    return {
        "meta": {
            "cycles": cycles,
            "warmup": warmup,
            "repeats": repeats,
            "grid": [c.label for c in grid],
            "host": host_metadata(),
        },
        "cells": cells,
        "geomean_kcycles_per_sec": geomean(
            c["kcycles_per_sec"] for c in cells),
        "geomean_kinstr_per_sec": geomean(
            c["kinstr_per_sec"] for c in cells),
    }


def speedup_vs(report: dict, baseline: dict) -> dict:
    """Per-cell and geometric-mean speedup of ``report`` over ``baseline``.

    Cells are matched by (workload, engine, policy); cells present in
    only one report are ignored (grids may evolve between commits).
    """
    def index(doc):
        return {(c["workload"], c["engine"], c["policy"]): c
                for c in doc.get("cells", ())}

    ours, theirs = index(report), index(baseline)
    per_cell = {}
    for key in ours.keys() & theirs.keys():
        base = theirs[key]["kcycles_per_sec"]
        if base > 0:
            per_cell["/".join(key)] = ours[key]["kcycles_per_sec"] / base
    return {
        "geomean": geomean(per_cell.values()),
        "per_cell": dict(sorted(per_cell.items())),
    }
