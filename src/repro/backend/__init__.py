"""How a simulation cell executes.

:class:`ReferenceBackend` builds one
:class:`~repro.core.simulator.Simulator` per cell and drives it through
three phases — ``warm`` (train caches and predictors, then discard the
statistics), ``advance`` (the measured window) and ``result`` (export
the statistics).  Every cell runs through it, via
:func:`repro.campaign.cells.execute_cell`, whether in a campaign
worker, an isolated recovery child or the calling process, so where a
cell runs cannot change its result.  The golden-parity fixture
(:mod:`repro.perf.parity`) pins those results byte for byte.
"""

from repro.backend.reference import ReferenceBackend

__all__ = ["ReferenceBackend"]
