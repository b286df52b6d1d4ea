"""repro — reproduction of Falcón, Ramirez & Valero, HPCA 2004.

*A Low-Complexity, High-Performance Fetch Unit for Simultaneous
Multithreading Processors.*

The package is a cycle-level SMT processor model organised around the
paper's subject — the decoupled fetch unit — plus every substrate it
needs: synthetic SPECint2000 workloads (:mod:`repro.program`), the
architectural walker (:mod:`repro.trace`), branch predictors
(:mod:`repro.branch`), the cache hierarchy (:mod:`repro.memory`), the
decoupled front-end (:mod:`repro.frontend`), the out-of-order core
(:mod:`repro.pipeline`), the per-cell execution engine
(:mod:`repro.backend`), the experiment harness
(:mod:`repro.experiments`) and the declarative design-space sweep
subsystem (:mod:`repro.sweeps`).

Typical use::

    from repro.core import simulate
    result = simulate("2_MIX", engine="stream", policy="ICOUNT.1.16",
                      cycles=20_000)
    print(result.ipfc, result.ipc)
"""

from repro.core import SimConfig, SimResult, Simulator, WORKLOADS, simulate

__version__ = "1.1.0"

__all__ = [
    "SimConfig",
    "SimResult",
    "Simulator",
    "WORKLOADS",
    "simulate",
    "__version__",
]
