"""Determinism: identical cells yield byte-identical results.

The experiment cache, the sweep reports and the golden-parity suite
all assume that a (workload, engine, policy, config, seed) cell is a
pure function — including across process boundaries, since
:class:`~repro.experiments.session.ExperimentSession` fans cells out to
workers that receive them *pickled*.
"""

import json
import pickle
from concurrent.futures import ProcessPoolExecutor

from repro.campaign.cells import Cell, execute_cell
from repro.core.config import SimConfig
from repro.core.simulator import simulate
from repro.experiments.session import ExperimentSession

CELL = Cell(workload="2_MIX", engine="stream", policy="ICOUNT.2.8",
            cycles=600, warmup=300, config=SimConfig(seed=3))


def render(result) -> str:
    """Canonical byte rendering of a result for equality checks."""
    return json.dumps(result.to_dict(), sort_keys=True)


class TestDeterminism:
    def test_same_cell_twice_in_process(self):
        a = simulate(CELL.workload, engine=CELL.engine, policy=CELL.policy,
                     cycles=CELL.cycles, config=CELL.config,
                     warmup=CELL.warmup)
        b = simulate(CELL.workload, engine=CELL.engine, policy=CELL.policy,
                     cycles=CELL.cycles, config=CELL.config,
                     warmup=CELL.warmup)
        assert render(a) == render(b)

    def test_pickled_cell_in_worker_process(self):
        """A forked/spawned worker reproduces the in-process bytes.

        The cell goes through an explicit pickle round trip first (the
        executor pickles it again for the worker), exactly like a
        ``jobs > 1`` session run.
        """
        local = execute_cell(CELL)
        roundtripped = pickle.loads(pickle.dumps(CELL))
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(execute_cell, roundtripped).result()
        assert render(local) == render(remote)

    def test_session_memo_and_fresh_session_agree(self, tmp_path):
        """Cache round trip (memo + disk JSON) is byte-lossless."""
        first = ExperimentSession(cache_dir=tmp_path)
        a = first.run_cells([CELL])[CELL]
        second = ExperimentSession(cache_dir=tmp_path)
        b = second.run_cells([CELL])[CELL]
        assert second.simulated == 0        # served from disk
        assert render(a) == render(b)
