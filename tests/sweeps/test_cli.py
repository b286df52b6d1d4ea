"""The run_sweep CLI: flag parsing, error surfacing, cache pruning.

The CLI module is imported from ``scripts/`` and driven in-process via
``main(argv)`` so failures produce assertable ``SystemExit`` messages
instead of subprocess plumbing.
"""

import csv
import importlib.util
import io
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"


def load_cli():
    spec = importlib.util.spec_from_file_location(
        "run_sweep_cli", SCRIPTS / "run_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli = load_cli()

FAST = ["--cycles", "300", "--warmup", "150"]


def run_cli(tmp_path, *extra, fmt="csv"):
    out = tmp_path / f"report.{fmt}"
    cli.main(["--cache-dir", str(tmp_path / "cache"), "--format", fmt,
              "--output", str(out), *FAST, *extra])
    return out.read_text(encoding="utf-8")


class TestFlagParsing:
    def test_axis_flag_parses_and_coerces(self):
        assert cli.parse_axis_flag("ftq_depth=1,2, 4") \
            == ("ftq_depth", (1, 2, 4))
        assert cli.parse_axis_flag("policy=ICOUNT.1.8,RR.1.8") \
            == ("policy", ("ICOUNT.1.8", "RR.1.8"))

    def test_axis_flag_requires_values(self):
        with pytest.raises(ValueError, match="no values"):
            cli.parse_axis_flag("ftq_depth=")
        with pytest.raises(ValueError, match="key=v1"):
            cli.parse_axis_flag("ftq_depth")

    def test_baseline_flag_parses(self):
        assert cli.parse_baseline_flag(["ftq_depth=4", "policy=RR.1.8"]) \
            == {"ftq_depth": 4, "policy": "RR.1.8"}

    def test_nothing_to_sweep_is_a_clean_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="nothing to sweep"):
            cli.main(["--cache-dir", str(tmp_path)])


class TestErrorSurfacing:
    def test_unknown_workload_is_clean_not_a_traceback(self, tmp_path):
        # workload_benchmarks' KeyError (with its known-names hint) must
        # surface as a SystemExit message through the CLI.
        with pytest.raises(SystemExit) as err:
            cli.main(["--axis", "workload=9_NOPE", "--cache-dir",
                      str(tmp_path), *FAST])
        message = str(err.value)
        assert "9_NOPE" in message
        assert "2_ILP" in message          # the suggestion list
        assert "Traceback" not in message

    def test_unknown_axis_suggests_close_match(self, tmp_path):
        with pytest.raises(SystemExit, match="ftq_depth"):
            cli.main(["--axis", "ftq_dpeth=1,2", "--cache-dir",
                      str(tmp_path), *FAST])

    def test_bad_policy_is_clean(self, tmp_path):
        with pytest.raises(SystemExit, match="policy"):
            cli.main(["--axis", "policy=ICOUNT.8", "--cache-dir",
                      str(tmp_path), *FAST])

    def test_explicit_baseline_typo_errors_not_silently_dropped(
            self, tmp_path):
        # --baseline ftq_depth=3 when the axis is (1,2,4,8): computing
        # speedups against a silently-substituted denominator would be
        # worse than failing.
        with pytest.raises(SystemExit, match="not among"):
            cli.main(["--preset", "ftq_depth", "--baseline",
                      "ftq_depth=3", "--cache-dir", str(tmp_path),
                      *FAST])

    def test_stale_preset_baseline_dropped_on_axis_override(
            self, tmp_path):
        # The inherited ftq_depth=1 pin no longer names a declared
        # value; it must be dropped (baseline falls back to the first
        # value), not crash.
        text = run_cli(tmp_path, "--preset", "ftq_depth",
                       "--axis", "ftq_depth=2,8", fmt="json")
        assert json.loads(text)["baseline"]["ftq_depth"] == "2"


class TestEndToEnd:
    AXES = ["--axis", "ftq_depth=1,4", "--axis", "workload=2_MIX",
            "--axis", "engine=stream", "--axis", "policy=ICOUNT.1.8"]

    def test_custom_sweep_emits_well_formed_csv(self, tmp_path):
        text = run_cli(tmp_path, *self.AXES, "--seeds", "2")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert {"mean_ipc", "ci95_ipc", "speedup"} <= set(rows[0])
        assert all(row["n"] == "2" for row in rows)

    def test_preset_with_axis_override_and_json(self, tmp_path):
        text = run_cli(tmp_path, "--preset", "ftq_depth",
                       "--axis", "ftq_depth=1,8", fmt="json")
        doc = json.loads(text)
        assert doc["sweep"] == "ftq_depth"
        assert [a for a in doc["axes"]
                if a["axis"] == "ftq_depth"][0]["values"] == ["1", "8"]

    def test_warm_rerun_is_byte_identical(self, tmp_path):
        first = run_cli(tmp_path, *self.AXES)
        second = run_cli(tmp_path, *self.AXES)
        assert first == second

    def test_list_presets(self, capsys):
        cli.main(["--list-presets"])
        out = capsys.readouterr().out
        for name in ("policy_width", "ftq_depth", "bank_conflicts",
                     "engine_shootout", "seed_stability"):
            assert name in out

    def test_list_presets_reports_cell_counts(self, capsys):
        import re
        from repro.sweeps import PRESETS
        cli.main(["--list-presets"])
        out = capsys.readouterr().out
        counts = [int(m) for m in re.findall(r"\((\d+) cells\)", out)]
        assert counts == [spec.n_cells() for spec in PRESETS.values()]

    def test_backend_flag_reproduces_reference_report(self, tmp_path):
        # A durable campaign (queue and manifest under the cache dir)
        # and an ephemeral one render byte-identical reports.
        (tmp_path / "durable").mkdir()
        (tmp_path / "ephemeral").mkdir()
        durable = run_cli(tmp_path / "durable", *self.AXES)
        ephemeral = run_cli(tmp_path / "ephemeral", *self.AXES,
                            "--no-cache")
        assert durable == ephemeral

    def test_backend_axis_agrees_across_backends(self, tmp_path):
        # In-process and two spawned workers agree on every row.
        (tmp_path / "inline").mkdir()
        (tmp_path / "workers").mkdir()
        inline = run_cli(tmp_path / "inline", *self.AXES)
        workers = run_cli(tmp_path / "workers", *self.AXES,
                          "--jobs", "2")
        assert inline == workers
        rows = list(csv.DictReader(io.StringIO(inline)))
        assert float(rows[0]["speedup"]) == 1.0

    def test_unknown_backend_axis_value_suggests(self, tmp_path):
        # ``backend`` is no longer an axis: it fails like any unknown
        # axis, naming what is accepted.
        with pytest.raises(SystemExit, match="unknown sweep axis") as err:
            cli.main(["--axis", "backend=reference", "--cache-dir",
                      str(tmp_path), *FAST])
        assert "SimConfig field" in str(err.value)

    def test_prune_cache_bounds_the_store(self, tmp_path, capsys):
        run_cli(tmp_path, *self.AXES, "--seeds", "3",
                "--prune-cache", "2")
        err = capsys.readouterr().err
        assert "cache pruned: 4 entry(ies) evicted" in err
        cache_files = list((tmp_path / "cache").glob("??/*.json"))
        assert len(cache_files) == 2

    def test_prune_with_no_cache_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--preset", "ftq_depth", "--no-cache",
                      "--prune-cache", "5"])
