"""Per-layer metrics computed from traced spans, and what each predicts.

``LAYERS`` maps every per-layer metric to its unit, its better
direction and the end-to-end metrics it should move on each workload
(``moves``).  A workload listed in ``moves`` exercises the layer, so
the traced run fails its self-check if the metric reads 0 there: a
wrapper that never fires must not pass silently.  ``trace.overhead_frac``
is the one metric outside that rule (it is 0 when tracing is free).

Times ending in ``_s`` are *self* time summed over the layer's spans
(duration minus the part covered by child spans), except
``campaign.plan_s`` and ``campaign.execute_s``, which are inclusive:
planning includes its cache probes and execution includes its workers.
Times and counts are per traced iteration of the workload; ratios are
taken over all traced iterations.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench.spans import Span, self_times

ENGINES = {"gshare+BTB": "gshare-btb", "gskew+FTB": "gskew-ftb",
           "stream": "stream"}
"""Engine names as the simulator reports them -> metric-name suffixes."""

_PW, _CS, _WR = "paper-window", "cold-sweep", "warm-report"
_GEN = {_CS: ["wall_s"], _WR: ["wall_s"]}
_LOOP = {_PW: ["sim_kcycles_per_s", "wall_s"], _CS: ["wall_s"]}
_SWEEP = {_CS: ["wall_s"]}
_FLEET = {_CS: ["wall_s", "ok_frac"]}
_CLI = {_WR: ["wall_s"], _CS: ["wall_s"]}


def _layer(unit: str, better: str, moves: dict) -> dict:
    return {"unit": unit, "better": better, "moves": moves}


LAYERS: dict[str, dict] = {
    "program.generate_s": _layer("s", "lower", _GEN),
    "program.generate_calls": _layer("count", "lower", _GEN),
    # Table 1 on warm-report looks each program up once, so only
    # cold-sweep's repeated lookups can hit.
    "program.lookup_hit_ratio": _layer("ratio", "higher",
                                       {_CS: ["wall_s"]}),
    "trace.dynamic_stats_s": _layer("s", "lower", {_WR: ["wall_s"]}),
    "core.construct_s": _layer("s", "lower", _LOOP),
    "backend.warm_s": _layer("s", "lower", _LOOP),
    "backend.advance_s": _layer("s", "lower", _LOOP),
    # cold-sweep runs the stream and gshare+BTB engines only.
    "backend.advance_s.gshare-btb": _layer("s", "lower", _LOOP),
    "backend.advance_s.gskew-ftb": _layer(
        "s", "lower", {_PW: ["sim_kcycles_per_s", "wall_s"]}),
    "backend.advance_s.stream": _layer("s", "lower", _LOOP),
    "backend.result_s": _layer("s", "lower", _LOOP),
    "backend.cycles": _layer("count", "higher", _LOOP),
    "backend.kcycles_per_s": _layer("kcycles/s", "higher", _LOOP),
    "campaign.plan_s": _layer("s", "lower", {_WR: ["wall_s"]}),
    "campaign.execute_s": _layer("s", "lower", _SWEEP),
    "campaign.worker_busy_frac": _layer("ratio", "higher", _FLEET),
    "campaign.queue_s": _layer("s", "lower", _FLEET),
    "campaign.queue_ops": _layer("count", "lower", _FLEET),
    "campaign.attempts_per_cell": _layer("ratio", "lower", _FLEET),
    "cache.get_s": _layer("s", "lower", {_WR: ["wall_s"]}),
    "cache.gets": _layer("count", "lower", {_WR: ["wall_s"]}),
    "cache.hit_ratio": _layer("ratio", "higher", {_WR: ["wall_s"]}),
    "cache.put_s": _layer("s", "lower", {_CS: ["wall_s"]}),
    "cache.puts": _layer("count", "lower", {_CS: ["wall_s"]}),
    "sweeps.aggregate_s": _layer("s", "lower", _SWEEP),
    "sweeps.render_s": _layer("s", "lower", _SWEEP),
    "obs.emit_s": _layer("s", "lower", _SWEEP),
    "obs.events": _layer("count", "lower", _SWEEP),
    "cli.import_s": _layer("s", "lower", _CLI),
    "cli.render_s": _layer("s", "lower", _CLI),
    "trace.overhead_frac": _layer("ratio", "lower", {}),
}

QUEUE_OPS = ("campaign.queue.lease", "campaign.queue.ack",
             "campaign.queue.nack", "campaign.queue.unlease")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], iterations: int) -> dict[str, float]:
    """Every ``LAYERS`` metric except ``trace.overhead_frac``."""
    own = self_times(spans)
    by: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by[span.name].append(span)
    n = max(iterations, 1)

    def self_s(*names: str) -> float:
        return sum(own[s.id] for name in names for s in by[name]) / n

    def incl_s(name: str) -> float:
        return sum(s.duration for s in by[name]) / n

    generated_under = {s.parent for s in by["program.generate"]}
    lookups = by["program.lookup"]
    ran = by["backend.warm"] + by["backend.advance"]
    cycles = sum(s.attrs["cycles"] for s in ran)
    loop_s = sum(own[s.id] for s in ran)
    capacity = sum(s.duration * s.attrs["workers"]
                   for s in by["campaign.execute"])
    gets = by["cache.get"]
    m = {
        "program.generate_s": self_s("program.generate"),
        "program.generate_calls": len(by["program.generate"]) / n,
        "program.lookup_hit_ratio": _ratio(
            sum(s.id not in generated_under for s in lookups),
            len(lookups)),
        "trace.dynamic_stats_s": self_s("trace.dynamic_stats"),
        "core.construct_s": self_s("core.construct"),
        "backend.warm_s": self_s("backend.warm"),
        "backend.advance_s": self_s("backend.advance"),
        "backend.result_s": self_s("backend.result"),
        "backend.cycles": cycles / n,
        "backend.kcycles_per_s": _ratio(cycles, loop_s) / 1000,
        "campaign.plan_s": incl_s("campaign.plan"),
        "campaign.execute_s": incl_s("campaign.execute"),
        "campaign.worker_busy_frac": _ratio(
            sum(s.duration for s in by["campaign.lease_exec"]), capacity),
        "campaign.queue_s": self_s(*QUEUE_OPS),
        "campaign.queue_ops": sum(len(by[op]) for op in QUEUE_OPS) / n,
        "campaign.attempts_per_cell": _ratio(
            sum(s.attrs["n"] for s in by["campaign.queue.lease"]),
            len(by["campaign.queue.ack"])),
        "cache.get_s": self_s("cache.get"),
        "cache.gets": len(gets) / n,
        "cache.hit_ratio": _ratio(sum(s.attrs["hit"] for s in gets),
                                  len(gets)),
        "cache.put_s": self_s("cache.put"),
        "cache.puts": len(by["cache.put"]) / n,
        "sweeps.aggregate_s": self_s("sweeps.run_sweep"),
        "sweeps.render_s": self_s("sweeps.render"),
        "obs.emit_s": self_s("obs.emit"),
        "obs.events": len(by["obs.emit"]) / n,
        "cli.import_s": incl_s("cli.import"),
        # The sweep CLI renders through the sweeps formatter, so on
        # cold-sweep this equals sweeps.render_s.
        "cli.render_s": self_s("cli.render", "sweeps.render"),
    }
    for engine, slug in ENGINES.items():
        m[f"backend.advance_s.{slug}"] = sum(
            own[s.id] for s in by["backend.advance"]
            if s.attrs["engine"] == engine) / n
    return m


def unfired(metrics: dict[str, float], workload: str) -> list[str]:
    """Metrics the mapping says ``workload`` exercises that read 0."""
    return [name for name, layer in LAYERS.items()
            if workload in layer["moves"] and not metrics.get(name)]


def describe(name: str) -> str:
    """One-line predicted mapping, e.g. ``wall_s on cold-sweep``."""
    moves = LAYERS[name]["moves"]
    if not moves:
        return "cost of tracing itself (traced / untraced wall_s - 1)"
    return "; ".join(f"{'/'.join(metrics)} on {workload}"
                     for workload, metrics in moves.items())
