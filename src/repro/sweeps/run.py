"""Sweep execution: expand, run through a session, aggregate.

:func:`run_sweep` is the subsystem's engine.  It expands a
:class:`~repro.sweeps.spec.SweepSpec` into
:class:`~repro.experiments.session.Cell` descriptors, executes them in
one :meth:`~repro.experiments.session.ExperimentSession.run_cells`
batch (deduplicated, parallel, content-cached), groups replicates
(points differing only in ``seed``), and computes per-point statistics,
speedup against the spec's baseline point and a per-axis sensitivity
ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.session import Cell, ExperimentSession
from repro.resilience.policy import CellFailure
from repro.sweeps.spec import METRICS, SweepSpec
from repro.sweeps.stats import Stats, summarize

DEFAULT_POINT = {"workload": "2_MIX", "engine": "stream",
                 "policy": "ICOUNT.1.8"}
"""Values for reserved axes a sweep does not declare.  They are echoed
in every report (``SweepResult.fixed``) so a report always names the
full machine point it measured."""


@dataclass
class PointResult:
    """One design point: replicate statistics plus derived metrics.

    Attributes:
        point: Axis -> value mapping (``seed`` excluded).
        stats: Metric name -> :class:`~repro.sweeps.stats.Stats` over
            the point's *surviving* replicates; ``None`` when every
            replicate of the point failed (an explicitly-marked
            missing point, never a silently absent row).
        speedup: Primary-metric mean relative to the baseline point's
            (``None`` when the baseline mean is zero, this point
            failed, or the baseline itself failed).
        is_baseline: True for the speedup denominator itself.
        missing: Replicates lost to cell failures (0 on healthy runs).
    """

    point: dict
    stats: dict[str, Stats] | None
    speedup: float | None = None
    is_baseline: bool = False
    missing: int = 0


@dataclass
class SweepResult:
    """Everything a report needs from one executed sweep."""

    spec: SweepSpec
    points: list[PointResult]
    cycles: int
    warmup: int
    sensitivity: list[tuple[str, float]] = field(default_factory=list)
    """(axis, relative range of the primary metric), largest first."""
    fixed: dict = field(default_factory=dict)
    """Reserved axes the sweep did not declare, and the default value
    every cell ran with."""
    failures: tuple[CellFailure, ...] = ()
    """Cells that stayed failed after retries (partial-results mode);
    their replicates are the ``missing`` counts above.  Reports render
    these explicitly and CLIs exit non-zero when any are present."""
    provenance: dict | None = None
    """Campaign provenance stamp (``{"campaign": id, "cells": n}``),
    carried into every report format.  Content-derived — the id hashes
    the planned cell set — so reports stay byte-identical across
    cold/warm caches and worker counts."""

    def baseline_point(self) -> PointResult:
        """The speedup denominator's :class:`PointResult`."""
        for point in self.points:
            if point.is_baseline:
                return point
        raise LookupError("sweep has no baseline point")  # unreachable


def expand_cells(spec: SweepSpec,
                 session: ExperimentSession) -> list[tuple[dict, Cell]]:
    """Every (point, cell) pair of the sweep, declaration order."""
    pairs = []
    for point in spec.points():
        cell = session.make_cell(
            point.get("workload", DEFAULT_POINT["workload"]),
            point.get("engine", DEFAULT_POINT["engine"]),
            point.get("policy", DEFAULT_POINT["policy"]),
            spec.cycles, spec.warmup, spec.point_config(point))
        pairs.append((point, cell))
    return pairs


def _sensitivity(spec: SweepSpec,
                 by_key: dict[tuple, PointResult]) -> list[tuple[str, float]]:
    """Relative primary-metric range per swept axis, largest first.

    For each axis (``seed`` excluded, single-value axes skipped) the
    point means are averaged per axis value; the sensitivity is the
    spread of those averages relative to the overall mean.  Axes whose
    values barely move the metric rank near zero.
    """
    usable = [p for p in by_key.values() if p.stats is not None]
    if not usable:
        return []
    means = [p.stats[spec.metric].mean for p in usable]
    overall = sum(means) / len(means)
    ranking = []
    for axis, values in spec.axes:
        if axis == "seed" or len(values) < 2:
            continue
        per_value = []
        for value in values:
            group = [p.stats[spec.metric].mean for p in usable
                     if p.point[axis] == value]
            if group:
                per_value.append(sum(group) / len(group))
        if len(per_value) < 2:
            continue               # axis unrankable once failures bite
        spread = max(per_value) - min(per_value)
        ranking.append((axis, spread / abs(overall) if overall else 0.0))
    ranking.sort(key=lambda item: (-item[1], item[0]))
    return ranking


def run_sweep(spec: SweepSpec, session: ExperimentSession,
              strict: bool | None = None) -> SweepResult:
    """Execute a sweep and aggregate its results.

    The whole grid goes through the session as one batch, so cells are
    deduplicated, fanned out across the session's workers and served
    from its content-addressed cache when warm.

    ``strict`` follows the session's setting by default.  In partial
    mode, cells the session gave up on (after its retry budget) are
    aggregated anyway: affected design points lose replicates
    (``PointResult.missing``), fully-dead points carry ``stats=None``,
    and the failure records ride along in ``SweepResult.failures`` so
    every report marks missing data explicitly.
    """
    pairs = expand_cells(spec, session)
    results = session.run_cells([cell for _, cell in pairs],
                                strict=strict)
    failures = session.last_failures
    campaign = session.last_campaign

    replicates: dict[tuple, dict[str, list[float]]] = {}
    points_by_key: dict[tuple, dict] = {}
    missing: dict[tuple, int] = {}
    for point, cell in pairs:
        key = spec.design_key(point)
        points_by_key.setdefault(key, {a: v for a, v in key})
        bucket = replicates.setdefault(key,
                                       {metric: [] for metric in METRICS})
        missing.setdefault(key, 0)
        if cell not in results:
            missing[key] += 1
            continue
        for metric in METRICS:
            bucket[metric].append(getattr(results[cell], metric))

    by_key: dict[tuple, PointResult] = {}
    for key, bucket in replicates.items():
        survivors = bucket[spec.metric]
        by_key[key] = PointResult(
            point=points_by_key[key],
            stats={metric: summarize(values)
                   for metric, values in bucket.items()}
            if survivors else None,
            missing=missing[key])

    baseline = by_key[spec.baseline_key()]
    baseline.is_baseline = True
    denom = baseline.stats[spec.metric].mean \
        if baseline.stats is not None else None
    for point in by_key.values():
        point.speedup = point.stats[spec.metric].mean / denom \
            if denom and point.stats is not None else None

    first_cell = pairs[0][1]
    swept = {axis for axis, _ in spec.axes}
    return SweepResult(spec=spec, points=list(by_key.values()),
                       cycles=first_cell.cycles, warmup=first_cell.warmup,
                       sensitivity=_sensitivity(spec, by_key),
                       fixed={axis: value
                              for axis, value in DEFAULT_POINT.items()
                              if axis not in swept},
                       failures=failures,
                       provenance=campaign.as_dict()
                       if campaign is not None else None)
