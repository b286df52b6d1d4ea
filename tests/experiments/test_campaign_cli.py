"""The planning flags both campaign CLIs share, and run_experiments.

``scripts/run_sweep.py`` and ``scripts/run_experiments.py`` take their
planning flags, checks and plan/resume/exit steps from
:mod:`repro.experiments.cli`; the validation cases below therefore run
against both and expect the same exit code and message.  The scripts
are imported from ``scripts/`` and driven in-process via
``main(argv)``.
"""

import importlib.util
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"


def load_cli(name):
    spec = importlib.util.spec_from_file_location(
        f"{name}_cli", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered like an imported module, so a process pool can pickle
    # the script's functions by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


CLIS = {name: load_cli(name) for name in ("run_sweep", "run_experiments")}

FAST = ["--cycles", "300", "--warmup", "150"]

# A tiny grid per CLI: two cells each.
GRID = {"run_sweep": ["--axis", "ftq_depth=1,2"],
        "run_experiments": ["--only", "fig2"]}

FOOTER = "_Total regeneration time"


def entries(cache):
    return sorted(Path(cache).glob("??/*.json"))


@pytest.fixture(params=sorted(CLIS))
def name(request):
    return request.param


class TestSharedValidation:
    @pytest.mark.parametrize("argv, message", [
        (["--jobs", "0"], "argument --jobs/-j: must be >= 1, got 0"),
        (["--retries", "-1"], "argument --retries: must be >= 0, got -1"),
        (["--cell-timeout", "0"],
         "argument --cell-timeout: must be > 0, got 0.0"),
        (["--prune-cache", "-1"],
         "argument --prune-cache: must be >= 0, got -1"),
        (["--verify-cache", "--no-cache"],
         "--verify-cache is meaningless with --no-cache"),
        (["--prune-cache", "5", "--no-cache"],
         "--prune-cache is meaningless with --no-cache"),
        (["--plan-only", "--no-cache"],
         "--plan-only needs a --campaign-dir"),
        (["--resume", "deadbeef", "--no-cache"],
         "--resume needs a --campaign-dir"),
    ])
    def test_rejected_at_parse_time(self, name, argv, message, capsys):
        with pytest.raises(SystemExit) as info:
            CLIS[name].parse_args(argv)
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_non_numbers_keep_the_argparse_message(self, name, capsys):
        with pytest.raises(SystemExit) as info:
            CLIS[name].parse_args(["--jobs", "many"])
        assert info.value.code == 2
        assert "argument --jobs/-j: invalid int value: 'many'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--cell-timeout", "0", "must be > 0, got 0.0"),
        ("--lease-batch", "0", "must be >= 1, got 0"),
        ("--lease-seconds", "0", "must be > 0, got 0.0"),
        ("--heartbeat-stale", "-1", "must be > 0, got -1.0"),
        ("--cell-memory-mb", "0", "must be > 0, got 0.0"),
    ])
    def test_worker_ranges_use_the_same_checks(self, flag, value, message,
                                               capsys):
        worker = load_cli("campaign_worker")
        with pytest.raises(SystemExit) as info:
            worker.parse_args(["--campaign", "c", flag, value])
        assert info.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err

    def test_negative_prune_budget_is_a_usage_error(self, name, tmp_path,
                                                    capsys):
        # Rejected before planning: no cell simulated, no report.
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as info:
            CLIS[name].main([*GRID[name], *FAST, "--cache-dir",
                             str(cache), "--prune-cache", "-1"])
        assert info.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "argument --prune-cache: must be >= 0" in out.err
        assert entries(cache) == []

    def test_strict_default_is_per_cli(self):
        assert CLIS["run_sweep"].parse_args([]).strict is False
        assert CLIS["run_experiments"].parse_args([]).strict is True
        assert CLIS["run_sweep"].parse_args(["--strict"]).strict is True
        assert CLIS["run_experiments"].parse_args(
            ["--no-strict"]).strict is False


class TestPruneCache:
    def test_plan_only_never_prunes(self, name, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = [*GRID[name], *FAST, "--cache-dir", str(cache)]
        CLIS[name].main(argv)
        filled = entries(cache)
        assert len(filled) == 2
        capsys.readouterr()
        CLIS[name].main([*argv, "--plan-only", "--prune-cache", "0"])
        out = capsys.readouterr()
        assert "cache pruned" not in out.err
        assert entries(cache) == filled

    def test_prune_runs_once_after_the_report(self, tmp_path, capsys):
        cli = CLIS["run_experiments"]
        cli.main([*GRID["run_experiments"], *FAST, "--cache-dir",
                  str(tmp_path / "cache"), "--prune-cache", "1"])
        out = capsys.readouterr()
        assert "## fig2" in out.out
        assert out.err.count("cache pruned") == 1
        assert "cache pruned: 1 entry(ies) evicted, 1 kept" in out.err
        assert len(entries(tmp_path / "cache")) == 1


class TestRunExperimentsCampaign:
    def test_plan_drain_resume_round_trip(self, tmp_path, capsys):
        cli = CLIS["run_experiments"]
        worker = load_cli("campaign_worker")
        cache = tmp_path / "cache"
        argv = ["--only", "fig2", "--cycles", "300", "--warmup", "150",
                "--cache-dir", str(cache)]
        cli.main([*argv, "--plan-only"])
        out = capsys.readouterr()
        cid = out.out.strip()
        assert len(cid) == 16 and "campaign planned under" in out.err
        assert entries(cache) == []

        worker.main(["--campaign", str(cache / "campaigns" / cid),
                     "--cache-dir", str(cache), "--no-wait"])
        assert "2 cell(s) executed" in capsys.readouterr().err

        cli.main([*argv, "--resume", cid])
        out = capsys.readouterr()
        assert "0 cell(s) simulated" in out.err
        assert f"Campaign `{cid}` (2 distinct cells)." in out.out

    def test_mismatched_resume_exits_without_simulating(self, tmp_path,
                                                       capsys):
        cli = CLIS["run_experiments"]
        cache = tmp_path / "cache"
        cli.main(["--only", "fig2", *FAST, "--cache-dir", str(cache),
                  "--plan-only"])
        cid = capsys.readouterr().out.strip()
        with pytest.raises(SystemExit,
                           match="does not match this invocation"):
            cli.main(["--only", "fig2", "--cycles", "400", "--warmup",
                      "150", "--cache-dir", str(cache), "--resume", cid])
        assert "cell(s) simulated" not in capsys.readouterr().err
        assert entries(cache) == []

    def test_plan_only_with_nothing_to_plan_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="selected no simulation"):
            CLIS["run_experiments"].main(
                ["--only", "table1", "--cache-dir", str(tmp_path),
                 "--plan-only"])

    @pytest.mark.parametrize("where", [[], ["--campaign-dir", "campaigns"]])
    def test_resume_with_nothing_to_plan_is_an_error(self, tmp_path,
                                                     capsys, where):
        with pytest.raises(SystemExit,
                           match="--resume selected no simulation"):
            CLIS["run_experiments"].main(
                ["--only", "table1", "--cache-dir", str(tmp_path),
                 *where, "--resume", "anything"])
        assert "Table 1" not in capsys.readouterr().out


class TestTable1:
    """Table 1 is computed in shares over --jobs processes."""

    @staticmethod
    def fail_on_second_name(monkeypatch, fail):
        # names[1::2] is the pool child's share at --jobs 2.
        cli = CLIS["run_experiments"]
        victim = sorted(cli.SPECINT2000)[1]
        real = cli.program_for

        def program_for(name, seed=0):
            if name == victim:
                fail(name)
            return real(name, seed)

        monkeypatch.setattr(cli, "program_for", program_for)
        return victim

    def test_rows_are_the_same_at_any_jobs(self):
        cli = CLIS["run_experiments"]
        rows = cli.table1_rows(1)
        assert [row["benchmark"] for row in rows] \
            == sorted(cli.SPECINT2000)
        assert cli.table1_rows(2) == rows
        assert cli.table1_rows(5) == rows       # uneven shares

    def test_report_is_the_same_at_any_jobs(self, capsys):
        def body(jobs):
            CLIS["run_experiments"].main(
                ["--only", "table1", "--no-cache", "--jobs", str(jobs)])
            return [line for line in capsys.readouterr().out.splitlines()
                    if not line.startswith(FOOTER)]

        serial = body(1)
        assert "## Table 1 — benchmark characteristics" in serial
        assert body(2) == serial

    def test_a_share_that_raises_fails_the_report(self, monkeypatch,
                                                  capsys):
        def fail(name):
            raise RuntimeError(f"no program for {name}")

        victim = self.fail_on_second_name(monkeypatch, fail)
        with pytest.raises(RuntimeError, match=f"no program for {victim}"):
            CLIS["run_experiments"].main(
                ["--only", "table1", "--no-cache", "--jobs", "2"])
        assert f"| {victim} |" not in capsys.readouterr().out

    def test_a_pool_child_that_dies_fails_the_report(self, monkeypatch):
        self.fail_on_second_name(monkeypatch, lambda name: os._exit(3))
        with pytest.raises(BrokenProcessPool):
            CLIS["run_experiments"].main(
                ["--only", "table1", "--no-cache", "--jobs", "2"])


class TestProfile:
    def test_profile_ranks_on_stderr_and_keeps_the_report(self, tmp_path,
                                                          capsys):
        cli = CLIS["run_experiments"]
        argv = ["--only", "fig2", *FAST, "--cache-dir",
                str(tmp_path / "cache")]
        cli.main(argv)
        capsys.readouterr()
        cli.main(argv)
        plain = capsys.readouterr()
        cli.main([*argv, "--profile"])
        profiled = capsys.readouterr()

        def body(text):
            return [line for line in text.splitlines()
                    if not line.startswith(FOOTER)]

        assert body(profiled.out) == body(plain.out)
        assert "cumulative" not in plain.err
        assert "Ordered by: cumulative time" in profiled.err
        assert "function calls" in profiled.err
