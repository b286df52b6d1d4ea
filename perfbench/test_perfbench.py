"""Tests of the benchmark's own arithmetic, names and output checks."""

import json
import re
from collections import namedtuple
from pathlib import Path

from perfbench import layers, run
from perfbench.probes import FUNCTIONS, METHODS, Probes
from perfbench.spans import Recorder, Span, covered, load, self_times
from perfbench.workloads import WORKLOADS, Context, PaperWindow

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    .read_text(encoding="utf-8"))


def test_self_time_subtracts_union_of_child_intervals():
    spans = [Span("p", None, "parent", 0.0, 10.0),
             Span("a", "p", "child", 1.0, 3.0),
             Span("b", "p", "child", 2.0, 5.0),     # overlaps a
             Span("c", "p", "child", 8.0, 12.0),    # runs past the parent
             Span("g", "a", "grandchild", 1.5, 2.5)]
    own = self_times(spans)
    assert own["p"] == 10.0 - (4.0 + 2.0)
    assert own["a"] == 2.0 - 1.0
    assert own["g"] == 1.0
    assert covered(0.0, 1.0, [(2.0, 3.0)]) == 0.0


def test_spans_round_trip_with_unique_ids(tmp_path):
    recorder = Recorder()
    outer = recorder.begin("outer")
    inner = recorder.begin("inner", key="k1", n=2)
    recorder.end(inner)
    recorder.end(outer)
    recorder.dump(tmp_path / "spans-1.json")
    loaded = {s.name: s for s in load(tmp_path, "it3/")}
    assert loaded["inner"].parent == loaded["outer"].id
    assert loaded["inner"].id.startswith("it3/")
    assert loaded["inner"].key == "k1"
    assert loaded["inner"].attrs == {"n": 2}


def test_metric_and_workload_names():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"]]
    names += [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]} \
        == {name: (layer["unit"], layer["better"])
            for name, layer in layers.LAYERS.items()}
    for layer in layers.LAYERS.values():
        assert set(layer["moves"]) <= set(WORKLOADS)


def test_layer_metrics_cover_the_mapping():
    metrics = layers.layer_metrics([], iterations=1)
    assert set(metrics) | {"trace.overhead_frac"} == set(layers.LAYERS)
    assert "program.generate_s" in layers.unfired(metrics, "cold-sweep")


def test_forced_digest_mismatch_is_a_failed_operation(tmp_path):
    Cell = namedtuple("Cell", "workload engine policy cycles warmup")
    Result = namedtuple("Result", "payload")
    Result.to_dict = lambda self: self.payload
    cells = {"a": Cell("2_ILP", "stream", "ICOUNT.1.8", 10, 5),
             "b": Cell("2_ILP", "stream", "ICOUNT.2.8", 10, 5)}
    results = {cells["a"]: Result({"ipc": 1.0}),
               cells["b"]: Result({"ipc": 2.0})}
    ctx = Context(tmp_path, 0, 0, tmp_path,
                  expected={"paper-window": {"0": {"a": "not-a-digest"}}})
    workload = PaperWindow(ctx)
    workload._check(cells, results)
    assert (ctx.tally.attempted, ctx.tally.failed) == (2, 1)
    assert "digest" in ctx.tally.problems[0]
    metrics = run.end_to_end(workload, ctx, setup_s=1.0, walls=[2.0])
    assert metrics["ok_frac"] == 0.5


def test_probes_restore_every_original():
    import importlib
    originals = [getattr(importlib.import_module(m), a)
                 for m, a, _ in FUNCTIONS]
    methods = [getattr(importlib.import_module(m), c).__dict__[a]
               for m, c, a, _ in METHODS]
    recorder = Recorder()
    probes = Probes(recorder).install()
    from repro.campaign.queue import CellQueue
    try:
        with CellQueue() as queue:
            queue.add([("k1", {"cell": 1}, "label")])
            leased = queue.lease("w", limit=1)
            queue.ack("k1", "w", {"ipc": 1.0})
    finally:
        probes.uninstall()
    assert [getattr(importlib.import_module(m), a)
            for m, a, _ in FUNCTIONS] == originals
    assert [getattr(importlib.import_module(m), c).__dict__[a]
            for m, c, a, _ in METHODS] == methods
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["campaign.queue.lease"].attrs == {"n": len(leased)}
    assert by_name["campaign.queue.ack"].key == "k1"
