"""The execution engine: its surface, phase contract and plumbing.

Byte-for-byte parity of simulated results against the golden fixture
lives in ``tests/perf/test_golden_parity.py``; these tests cover the
layer itself — the one engine ``repro.backend`` exports and the names
the repo benchmark's probes patch on it, construction errors, the run
contract, program sharing between cells of one batch, and the plumbing
through ``simulate`` and the experiment session.
"""

import json

import pytest

import repro.backend
from repro.backend import ReferenceBackend, reference
from repro.campaign.cells import Cell, execute_cell
from repro.core.config import DEFAULT_CONFIG, SimConfig
from repro.core.simulator import Simulator, simulate, warm_regions
from repro.core.workloads import WORKLOADS
from repro.experiments.session import ExperimentSession
from repro.program.generator import program_for
from repro.sweeps.spec import KNOWN_AXES

FAST = dict(cycles=400, warmup=200)


def render(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestRegistry:
    """What stands where the backend registry was: one exported engine."""

    def test_builtin_backends_registered(self):
        # One engine, and no selector for it anywhere a cell is named.
        assert repro.backend.__all__ == ["ReferenceBackend"]
        assert "backend" not in SimConfig().to_dict()
        assert "backend" not in KNOWN_AXES

    def test_get_backend_returns_classes(self):
        # The repo benchmark's probes patch these names on the class
        # itself and read the engine name through the simulator.
        assert repro.backend.ReferenceBackend is reference.ReferenceBackend
        for name in ("__init__", "warm", "advance", "result"):
            assert name in vars(ReferenceBackend)
        machine = ReferenceBackend(WORKLOADS["2_MIX"], engine="stream",
                                   workload_name="2_MIX")
        assert machine.simulator.engine.name == "stream"

    def test_unknown_backend_suggests_close_match(self):
        # A mistyped benchmark fails at construction, listing the
        # known names.
        with pytest.raises(KeyError, match="gzip"):
            ReferenceBackend(("gzp",))

    def test_reregistering_same_class_is_noop(self):
        # Building the same cell's machine twice regenerates nothing.
        ReferenceBackend(WORKLOADS["2_MIX"], config=SimConfig(seed=5))
        misses = program_for.cache_info().misses
        ReferenceBackend(WORKLOADS["2_MIX"], config=SimConfig(seed=5))
        assert program_for.cache_info().misses == misses

    def test_nameless_class_rejected(self):
        with pytest.raises(ValueError, match="at least one benchmark"):
            ReferenceBackend(())

    def test_non_backend_class_rejected(self):
        with pytest.raises(ValueError, match="turbo"):
            ReferenceBackend(WORKLOADS["2_MIX"], engine="turbo")


class TestProtocol:
    def test_run_equals_warm_advance_result(self):
        a = ReferenceBackend(WORKLOADS["2_MIX"], engine="stream",
                             policy="ICOUNT.2.8", workload_name="2_MIX")
        a.warm(200)
        a.advance(400)
        b = ReferenceBackend(WORKLOADS["2_MIX"], engine="stream",
                             policy="ICOUNT.2.8", workload_name="2_MIX")
        assert render(a.result()) == render(b.run(400, warmup=200))

    def test_run_defaults_warmup_to_config(self):
        config = SimConfig(warmup_cycles=200)
        a = ReferenceBackend(WORKLOADS["2_MIX"], config=config,
                             workload_name="2_MIX")
        b = ReferenceBackend(WORKLOADS["2_MIX"], config=config,
                             workload_name="2_MIX")
        assert render(a.run(400)) == render(b.run(400, warmup=200))

    def test_simulate_backend_kwarg_overrides_config(self):
        via_kwarg = simulate("2_MIX", cycles=400, warmup=200,
                             config=SimConfig(warmup_cycles=900))
        via_config = simulate("2_MIX", cycles=400,
                              config=SimConfig(warmup_cycles=200))
        assert render(via_kwarg) == render(via_config)

    def test_simulate_rejects_unknown_backend(self):
        # The selector is gone, not silently ignored: neither a keyword
        # nor a config field named ``backend`` is accepted.
        with pytest.raises(TypeError, match="backend"):
            simulate("2_MIX", backend="turbo", **FAST)
        with pytest.raises(ValueError, match="backend"):
            SimConfig.from_dict({"backend": "reference"})

    def test_backend_is_abstract(self):
        # The engine owns no run sequence of its own: ``run`` is the
        # Simulator's, driven through whatever phase methods the class
        # has, so patching a phase on the class reaches every run.
        assert ReferenceBackend.run is Simulator.run
        calls = []

        class Traced(ReferenceBackend):
            def warm(self, cycles):
                calls.append(("warm", cycles))
                super().warm(cycles)

            def advance(self, cycles):
                calls.append(("advance", cycles))
                super().advance(cycles)

        machine = Traced(WORKLOADS["2_MIX"], workload_name="2_MIX")
        machine.run(400, warmup=200)
        assert calls == [("warm", 200), ("advance", 400)]


class TestBatchedBackend:
    """Cells run as one batch: a campaign lease, sharing programs."""

    GRID = [("2_MIX", "stream", "ICOUNT.2.8", 0),
            ("2_MIX", "gshare+BTB", "ICOUNT.1.8", 0),
            ("4_MIX", "gskew+FTB", "ICOUNT.2.8", 1),
            ("2_ILP", "stream", "ICOUNT.1.8", 2)]

    def cells(self):
        return [Cell(workload=w, engine=e, policy=p, cycles=400,
                     warmup=200, config=SimConfig(seed=s))
                for w, e, p, s in self.GRID]

    def test_run_cells_matches_per_cell_reference(self):
        batch = ExperimentSession(**FAST).run_cells(self.cells())
        assert [render(batch[cell]) for cell in self.cells()] == \
            [render(execute_cell(cell)) for cell in self.cells()]

    def test_batch_tables_share_programs_and_regions(self):
        a = ReferenceBackend(WORKLOADS["2_MIX"], workload_name="2_MIX")
        b = ReferenceBackend(WORKLOADS["2_MIX"], workload_name="2_MIX",
                             policy="ICOUNT.2.8")
        for ctx_a, ctx_b in zip(a.simulator.contexts,
                                b.simulator.contexts):
            assert ctx_a.program is ctx_b.program
        program = a.simulator.contexts[0].program
        assert warm_regions(program) == warm_regions(program)

    def test_batch_tables_distinguish_seeds(self):
        assert program_for("gzip", 0) is program_for("gzip", 0)
        assert program_for("gzip", 0) is not program_for("gzip", 1)

    def test_empty_batch(self):
        session = ExperimentSession(**FAST)
        assert session.run_cells([]) == {}
        assert session.simulated == 0


class TestSessionBackendPlumbing:
    def test_session_backend_applies_to_default_config(self):
        session = ExperimentSession(config=SimConfig(seed=3), **FAST)
        cell = session.make_cell("2_MIX", "stream", "ICOUNT.2.8")
        assert cell.config.seed == 3

    def test_session_rejects_unknown_backend(self):
        with pytest.raises(TypeError, match="backend"):
            ExperimentSession(backend="turbo")

    def test_backend_participates_in_cell_keys(self):
        # The key hashes the cell's config, which names no engine
        # implementation: only machine and run-control fields count.
        session = ExperimentSession(**FAST)
        a = session.make_cell("2_MIX", "stream", "ICOUNT.2.8")
        b = session.make_cell("2_MIX", "stream", "ICOUNT.2.8",
                              config=SimConfig(seed=1))
        assert session.key_for(a) != session.key_for(b)
        assert session.key_for(a) == ExperimentSession(**FAST).key_for(
            ExperimentSession(**FAST).make_cell(
                "2_MIX", "stream", "ICOUNT.2.8"))

    def test_batched_session_matches_reference_results(self):
        session = ExperimentSession(**FAST)
        grid = [("2_MIX", "stream", "ICOUNT.2.8"),
                ("2_MIX", "gshare+BTB", "ICOUNT.1.8"),
                ("4_MIX", "stream", "ICOUNT.2.8")]
        for workload, engine, policy in grid:
            a = session.measure(workload, engine, policy)
            b = simulate(workload, engine=engine, policy=policy, **FAST)
            assert render(a) == render(b)
        assert session.simulated == len(grid)

    def test_parallel_batched_jobs_match_serial_reference(self, tmp_path):
        serial = ExperimentSession(**FAST)
        parallel = ExperimentSession(jobs=2, cache_dir=tmp_path, **FAST)
        grid = [("2_MIX", "stream", "ICOUNT.2.8", s) for s in range(3)] \
            + [("2_MIX", "gshare+BTB", "ICOUNT.1.8", 0)]
        serial_cells = [serial.make_cell(w, e, p, config=SimConfig(seed=s))
                        for w, e, p, s in grid]
        parallel_cells = [parallel.make_cell(w, e, p,
                                             config=SimConfig(seed=s))
                          for w, e, p, s in grid]
        a = serial.run_cells(serial_cells)
        b = parallel.run_cells(parallel_cells)
        assert [render(r) for r in a.values()] == \
            [render(r) for r in b.values()]

    def test_explicit_cell_config_keeps_its_own_backend(self):
        session = ExperimentSession(config=SimConfig(seed=3), **FAST)
        cell = session.make_cell("2_MIX", "stream", "ICOUNT.2.8",
                                 config=DEFAULT_CONFIG)
        assert cell.config == DEFAULT_CONFIG
