"""Architectural execution: correct-path walking over synthetic programs.

``ThreadContext`` holds the architectural state of one hardware thread
(program counter, return stack, per-instruction occurrence counters) and
implements the paper's trace-driven semantics: the front-end may fetch
down *any* predicted path via the basic-block dictionary, while the
context tracks where the architectural path actually goes and flags the
first divergence.

``walk`` exposes the plain correct-path instruction stream.
``dynamic_stats`` characterises workloads (dynamic basic-block size,
taken rate, stream lengths) independently of any microarchitecture,
with a block-level walker that reproduces ``walk`` exactly.
"""

from repro.trace.context import ThreadContext
from repro.trace.walker import StreamSummary, dynamic_stats, walk

__all__ = ["StreamSummary", "ThreadContext", "dynamic_stats", "walk"]
