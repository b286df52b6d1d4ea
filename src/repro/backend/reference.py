"""The execution engine: one :class:`Simulator` per cell, run in phases.

A thin adapter over :class:`~repro.core.simulator.Simulator` and its
:class:`~repro.pipeline.core.SmtCore` cycle loop that names the three
phases of a cell — ``warm``, ``advance``, ``result`` — as methods of
its own, so the throughput benchmark can time exactly one ``advance``
and the repo benchmark's probes can attribute time to each phase.
"""

from __future__ import annotations

from repro.core.config import DEFAULT_CONFIG, SimConfig
from repro.core.metrics import SimResult
from repro.core.simulator import Simulator


class ReferenceBackend:
    """One :class:`Simulator` per cell, driven phase by phase.

    ``benchmarks`` is an explicit benchmark tuple; use
    :func:`~repro.core.workloads.resolve_workload` to turn a workload
    name into one.  ``config`` defaults to the Table 3 baseline.
    """

    def __init__(self, benchmarks, engine="gshare+BTB",
                 policy="ICOUNT.1.8", config: SimConfig | None = None,
                 workload_name: str | None = None) -> None:
        self.config = config or DEFAULT_CONFIG
        self.simulator = Simulator(benchmarks, engine, policy,
                                   self.config,
                                   workload_name=workload_name)

    def warm(self, cycles: int) -> None:
        """Advance ``cycles`` cycles, then discard all statistics."""
        self.simulator.warm(cycles)

    def advance(self, cycles: int) -> None:
        """Advance ``cycles`` measured cycles."""
        self.simulator.advance(cycles)

    def result(self) -> SimResult:
        """Snapshot the statistics accumulated since the last reset."""
        return self.simulator.result()

    # The one warm -> reset -> measure -> result sequence, shared with
    # Simulator; it calls this class's phase methods.
    run = Simulator.run

