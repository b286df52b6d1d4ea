"""The benchmark's three workloads and the checks on their outputs.

All three are closed loops with one client: each iteration starts
after the previous one has finished, and no iteration runs more than
two processes doing work.

* ``paper-window`` runs a fixed grid of cells at the paper's default
  window in this process, through ``ExperimentSession(jobs=1)`` with no
  disk cache.  Programs are generated in set-up, so the cycle loop does
  almost all the timed work.
* ``cold-sweep`` runs a fresh ``scripts/run_sweep.py`` process on the
  ``policy_width`` sweep's 2_MIX cells over two seeds with two
  workers, an empty result cache and a durable campaign directory.
  Its windows are short, so program generation, the queue and cache
  writes dominate.
* ``warm-report`` runs a fresh ``scripts/run_experiments.py`` process
  for the whole report against a cache filled in set-up: no cell is
  simulated, so it times planning, cache reads, Table 1's program
  regeneration, import and rendering.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import spans as spanlib
from perfbench.probes import Probes

EXPECTED = Path(__file__).with_name("expected.json")
"""Recorded output digests, per workload and program seed."""

SETUP_REPEATS = 5
"""Set-ups per run whose median is ``setup_s`` (where set-up repeats)."""

CLI_TIMEOUT = 60.0
"""Seconds after which a hung CLI process is killed (and fails)."""

FIG_CELLS = ("2_MIX", "gshare+BTB")
FIG_POLICIES = ("ICOUNT.1.8", "ICOUNT.2.8", "ICOUNT.1.16", "ICOUNT.2.16")

PAPER_GRID = (
    # The Figure 2/4 cells: gzip-twolf, gshare+BTB, 1.X and 2.X, 8 and 16.
    *((FIG_CELLS[0], FIG_CELLS[1], policy) for policy in FIG_POLICIES),
    ("2_MIX", "gskew+FTB", "ICOUNT.1.8"),
    ("2_MIX", "gskew+FTB", "ICOUNT.2.8"),
    ("2_MIX", "stream", "ICOUNT.1.8"),
    ("2_MIX", "stream", "ICOUNT.2.8"),
    ("4_MIX", "gshare+BTB", "ICOUNT.2.8"),
    ("4_MIX", "gskew+FTB", "ICOUNT.1.16"),
    ("4_MIX", "stream", "ICOUNT.1.8"),
    ("4_MIX", "stream", "ICOUNT.2.16"),
)
"""Every engine, 1.X and 2.X policies, 2- and 4-thread workloads: the
axes the cycle loop specialises on."""

PAPER_CYCLES, PAPER_WARMUP = 20_000, 8_000
SHORT_CYCLES, SHORT_WARMUP = 600, 300

_PLANNED = re.compile(r"\((\d+) distinct cells, (\d+) to simulate\)")
_SIMULATED = re.compile(r"\] (\d+) cell\(s\) simulated")
FOOTER = "_Total regeneration time"


def digest(obj) -> str:
    """Short content hash of a JSON-safe object or of bytes."""
    data = obj if isinstance(obj, bytes) \
        else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


class Tally:
    """Operations attempted and failed; an operation fails on any problem."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def check_digest(found: str, expected: str | None, reference: str | None,
                 ) -> list[str]:
    """Problems with ``found`` against the recorded digest, or, for a
    seed without one, against the digest of the run's first iteration."""
    want = expected if expected is not None else reference
    if want is not None and found != want:
        source = "recorded" if expected is not None else "first iteration"
        return [f"digest {found} != {source} {want}"]
    return []


def paper_err_pct(results: dict) -> float:
    """Mean |measured/paper - 1| (in %) over the 12 Section 3 numbers.

    ``results`` maps each of ``FIG_POLICIES`` to the 2_MIX gshare+BTB
    ``SimResult``: the two Figure 2 IPFC anchors, the eight fetch
    distribution fractions and the two Figure 4 ratios.
    """
    from repro.experiments.paper_data import DISTRIBUTION_CLAIMS, \
        FIG2_ANCHORS, PAPER_CLAIMS
    ratios = [results[policy].ipfc / paper
              for policy, paper in FIG2_ANCHORS.items()]
    ratios += [results[policy].delivered_at_least[n] / paper
               for policy, fractions in DISTRIBUTION_CLAIMS.items()
               for n, paper in fractions.items()]
    ratios += [results[c.numer[1]].ipfc / results[c.denom[1]].ipfc
               / c.paper_ratio
               for c in PAPER_CLAIMS if c.claim_id.startswith("fig4-")]
    return 100 * statistics.fmean(abs(r - 1) for r in ratios)


def cache_summary(cache_dir: Path, seed: int) -> tuple[dict, int]:
    """``(Figure 2/4 results, cell cycles)`` read back from a cache.

    The results are the four ``FIG_POLICIES`` cells at program seed
    ``seed``; the cycles are warm-up plus measured cycles of every
    cached cell.
    """
    from repro.core.metrics import SimResult
    figure = {}
    cycles = 0
    for path in cache_dir.glob("??/*.json"):
        payload = json.loads(path.read_text(encoding="utf-8"))
        cell = payload["cell"]
        cycles += cell["cycles"] + cell["warmup"]
        if (cell["workload"], cell["engine"]) == FIG_CELLS \
                and cell["config"]["seed"] == seed:
            figure[cell["policy"]] = SimResult.from_dict(payload["result"])
    return figure, cycles


def figure_problems(figure: dict) -> list[str]:
    missing = sorted(set(FIG_POLICIES) - set(figure))
    return [f"Figure 2/4 cells missing: {missing}"] if missing else []


class Context:
    """What every workload shares: paths, seeds, tally, recorded digests.

    ``seed`` only reorders work (see ``PaperWindow``); ``program_seed``
    is the program-generation seed, which changes what is simulated.
    """

    def __init__(self, root: Path, seed: int, program_seed: int,
                 tmp: Path, expected: dict | None = None) -> None:
        self.root = root
        self.seed = seed
        self.program_seed = program_seed
        self.tmp = tmp
        self.tally = Tally()
        self.expected = expected if expected is not None else (
            json.loads(EXPECTED.read_text(encoding="utf-8"))
            if EXPECTED.exists() else {})
        self.observed: dict[str, object] = {}
        self._dirs = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.tmp / f"{stem}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def recorded(self, workload: str):
        """Recorded digests of ``workload`` for this program seed."""
        return self.expected.get(workload, {}).get(str(self.program_seed))


@dataclass
class CliRun:
    """One finished CLI process: exit code, output, wall time, peak RSS."""

    returncode: int
    stdout: bytes
    stderr: bytes
    wall: float
    peak_rss_mb: float

    def problems(self) -> list[str]:
        if self.returncode == 0:
            return []
        tail = self.stderr.decode(errors="replace").strip()[-300:]
        return [f"exit code {self.returncode}: {tail}"]

    def simulated(self) -> int | None:
        found = _SIMULATED.findall(self.stderr.decode(errors="replace"))
        return int(found[-1]) if found else None

    def planned(self) -> int | None:
        found = _PLANNED.findall(self.stderr.decode(errors="replace"))
        return int(found[-1][1]) if found else None


def run_cli(ctx: Context, script: str, args: list[str],
            span_dir: Path | None = None) -> CliRun:
    """Run ``scripts/<script>`` in a fresh interpreter and wait for it.

    With ``span_dir`` the script runs under ``perfbench/traced_cli.py``,
    which installs the probes and leaves one span file per process
    there.  Peak RSS is the largest of the process and its reaped
    children (``wait4``).
    """
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"),
               TMPDIR=str(ctx.tmp))
    script_path = str(ctx.root / "scripts" / script)
    cmd = [sys.executable, script_path, *args]
    if span_dir is not None:
        cmd[1:1] = [str(Path(__file__).with_name("traced_cli.py"))]
        env["PERFBENCH_SPANS"] = str(span_dir)
    out_path, err_path = ctx.tmp / "cli.out", ctx.tmp / "cli.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        env["PERFBENCH_LAUNCH"] = repr(start)
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=ctx.root)
        timer = threading.Timer(CLI_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(proc.returncode, out_path.read_bytes(),
                  err_path.read_bytes(), wall, usage.ru_maxrss / 1024)


class PaperWindow:
    """In-process grid at the paper's window; the cycle loop's workload."""

    name = "paper-window"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.reference: dict[str, str] = {}
        self.paper_err = 0.0
        self.cycles = 0

    def setup(self) -> float:
        start = time.perf_counter()
        from repro.core.workloads import WORKLOADS
        from repro.experiments.session import ExperimentSession  # noqa: F401
        from repro.program.generator import program_for
        imported = time.perf_counter() - start
        benchmarks = sorted({b for workload, _, _ in PAPER_GRID
                             for b in WORKLOADS[workload]})
        generation = []
        for _ in range(SETUP_REPEATS):
            program_for.cache_clear()
            start = time.perf_counter()
            for name in benchmarks:
                program_for(name, self.ctx.program_seed)
            generation.append(time.perf_counter() - start)
        return imported + statistics.median(generation)

    def iterate(self, recorder: spanlib.Recorder | None) -> float:
        from repro.core.config import DEFAULT_CONFIG
        from repro.experiments.session import ExperimentSession
        session = ExperimentSession(
            jobs=1,
            config=DEFAULT_CONFIG.with_(seed=self.ctx.program_seed),
            cycles=PAPER_CYCLES, warmup=PAPER_WARMUP)
        grid = list(PAPER_GRID)
        random.Random(self.ctx.seed).shuffle(grid)
        cells = {f"{w}/{e}/{p}": session.make_cell(w, e, p)
                 for w, e, p in grid}
        probes = Probes(recorder).install() if recorder is not None \
            else None
        start = time.perf_counter()
        try:
            results = session.run_cells(cells.values(), strict=False)
        finally:
            wall = time.perf_counter() - start
            if probes is not None:
                probes.uninstall()
        self._check(cells, results)
        return wall

    def _check(self, cells: dict, results: dict) -> None:
        recorded = self.ctx.recorded(self.name) or {}
        first = not self.reference
        for label, cell in cells.items():
            result = results.get(cell)
            if result is None:
                self.ctx.tally.record(label, ["cell failed"])
                continue
            found = digest(result.to_dict())
            self.ctx.tally.record(label, check_digest(
                found, recorded.get(label), self.reference.get(label)))
            if first:
                self.reference[label] = found
        if first:
            self.ctx.observed[self.name] = dict(self.reference)
            self.cycles = sum(c.cycles + c.warmup for c in cells.values())
            figure = {c.policy: results[c] for c in cells.values()
                      if (c.workload, c.engine) == FIG_CELLS
                      and c in results}
            if len(figure) == len(FIG_POLICIES):
                self.paper_err = paper_err_pct(figure)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _CliWorkload:
    """Shared iteration bookkeeping of the two CLI workloads."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.rss: list[float] = []
        self.paper_err = 0.0
        self.cycles = 0

    def peak_rss_mb(self) -> float:
        return statistics.median(self.rss)

    def _run(self, args: list[str], recorder) -> CliRun:
        span_dir = self.ctx.fresh_dir("spans") if recorder is not None \
            else None
        run = run_cli(self.ctx, self.script, args, span_dir)
        self.rss.append(run.peak_rss_mb)
        if span_dir is not None:
            recorder.spans.extend(spanlib.load(span_dir,
                                               f"{span_dir.name}/"))
            shutil.rmtree(span_dir)
        return run


class ColdSweep(_CliWorkload):
    """Fresh sweep process, empty cache, two supervised workers."""

    name = "cold-sweep"
    script = "run_sweep.py"

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.planned: int | None = None
        self.reference: str | None = None

    def args(self, work: Path) -> list[str]:
        seed = self.ctx.program_seed
        # The gshare+BTB engine joins the preset's stream engine so the
        # Figure 2/4 cells exist for paper_err_pct.  2_MIX alone keeps
        # the grid at 16 cells: the session then leases 8 cells at a
        # time, so each worker takes exactly one lease and generates
        # the same programs every iteration.  With more cells, which
        # worker leases which batch decides how many programs are
        # generated twice, so total work varies by ~20% between
        # identical iterations.
        return ["--preset", "policy_width",
                "--axis", "workload=2_MIX",
                "--axis", "engine=stream,gshare+BTB",
                "--axis", f"seed={seed},{seed + 1}",
                "--jobs", "2", "--cycles", str(SHORT_CYCLES),
                "--warmup", str(SHORT_WARMUP),
                "--cache-dir", str(work / "cache"),
                "--campaign-dir", str(work / "campaigns")]

    def setup(self) -> float:
        """Plan the campaign (``--plan-only``), which names its cells."""
        walls = []
        for _ in range(SETUP_REPEATS):
            work = self.ctx.fresh_dir("plan")
            run = run_cli(self.ctx, self.script,
                          [*self.args(work), "--plan-only"])
            walls.append(run.wall)
            planned = run.planned()
            problems = run.problems()
            if not planned:
                problems.append("plan names no cells")
            if self.ctx.tally.record("plan", problems):
                self.planned = planned
            shutil.rmtree(work)
        return statistics.median(walls)

    def iterate(self, recorder) -> float:
        from repro.campaign.queue import CellQueue
        work = self.ctx.fresh_dir("sweep")
        run = self._run(self.args(work), recorder)
        problems = run.problems()
        if run.simulated() != self.planned:
            problems.append(f"simulated {run.simulated()} cells, "
                            f"planned {self.planned}")
        queues = list((work / "campaigns").glob("*/queue.sqlite"))
        if len(queues) == 1:
            with CellQueue(queues[0]) as queue:
                counts = queue.counts()
            if counts != {"done": self.planned}:
                problems.append(f"queue states {counts}")
        else:
            problems.append(f"{len(queues)} campaign queues")
        found = digest(run.stdout)
        problems += check_digest(found, self.ctx.recorded(self.name),
                                 self.reference)
        if self.reference is None and not problems:
            self.reference = self.ctx.observed[self.name] = found
            figure, self.cycles = cache_summary(work / "cache",
                                                self.ctx.program_seed)
            missing = figure_problems(figure)
            problems += missing
            if not missing:
                self.paper_err = paper_err_pct(figure)
        self.ctx.tally.record("sweep", problems)
        shutil.rmtree(work)
        return run.wall


class WarmReport(_CliWorkload):
    """Fresh report process against a cache that set-up filled.

    ``run_experiments.py`` takes no seed, so this workload always runs
    program seed 0 whatever ``--program-seed`` says.
    """

    name = "warm-report"
    script = "run_experiments.py"

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.work = ctx.fresh_dir("report")
        self.body: list[bytes] | None = None

    def args(self) -> list[str]:
        return ["--jobs", "2", "--cycles", str(SHORT_CYCLES),
                "--warmup", str(SHORT_WARMUP),
                "--cache-dir", str(self.work / "cache"),
                "--campaign-dir", str(self.work / "campaigns")]

    @staticmethod
    def _body(stdout: bytes) -> list[bytes]:
        return [line for line in stdout.splitlines()
                if not line.startswith(FOOTER.encode())]

    def setup(self) -> float:
        """The cold run that fills the cache (at short windows)."""
        run = run_cli(self.ctx, self.script, self.args())
        problems = run.problems()
        if not run.planned() or run.simulated() != run.planned():
            problems.append(f"simulated {run.simulated()} of "
                            f"{run.planned()} planned cells")
        figure, self.cycles = cache_summary(self.work / "cache", 0)
        problems += figure_problems(figure)
        if self.ctx.tally.record("fill", problems):
            self.body = self._body(run.stdout)
            self.paper_err = paper_err_pct(figure)
        return run.wall

    def iterate(self, recorder) -> float:
        run = self._run(self.args(), recorder)
        problems = run.problems()
        if run.simulated() != 0:
            problems.append(f"simulated {run.simulated()} cells, want 0")
        if self.body is None or self._body(run.stdout) != self.body:
            problems.append("report differs from the cold run's")
        self.ctx.tally.record("report", problems)
        return run.wall


WORKLOADS = {w.name: w for w in (PaperWindow, ColdSweep, WarmReport)}
"""Workload name -> class, in the order the benchmark documents them."""
