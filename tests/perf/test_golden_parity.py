"""Golden-parity contract for hot-path optimisations.

The cycle loop is aggressively optimised (event-wheel writeback,
ready-count wakeup, closure-specialised stages); these tests pin the
contract that none of it may change a simulated outcome.  The fixture
was generated *before* the optimisations and must keep matching
byte-for-byte; see :mod:`repro.perf.parity` for the regeneration
protocol when an intentional behaviour change lands.
"""

from pathlib import Path

import pytest

from repro.core.config import SimConfig
from repro.experiments.cache import cell_key
from repro.experiments.session import ExperimentSession
from repro.perf.parity import (
    PARITY_CELLS,
    PARITY_CYCLES,
    PARITY_WARMUP,
    canonical_json,
    collect_parity,
    parity_label,
)

FIXTURE = Path(__file__).with_name("golden_parity.json")


def collect_parity_batched() -> dict[str, dict]:
    """The pinned grid, run as one campaign through a session."""
    session = ExperimentSession(cycles=PARITY_CYCLES,
                                warmup=PARITY_WARMUP)
    cells = {parity_label(w, e, p, seed):
             session.make_cell(w, e, p, config=SimConfig(seed=seed))
             for w, e, p, seed in PARITY_CELLS}
    results = session.run_cells(cells.values())
    return {label: results[cell].to_dict()
            for label, cell in cells.items()}


class TestGoldenParity:
    def test_fixture_exists_and_covers_grid(self):
        text = FIXTURE.read_text(encoding="utf-8")
        for workload, engine, policy, seed in PARITY_CELLS:
            assert f'"{parity_label(workload, engine, policy, seed)}"' \
                in text

    @pytest.mark.parametrize("route", ["batched", "reference"])
    def test_simulation_results_byte_identical(self, route):
        """Every pinned cell reproduces its fixture dict byte-for-byte.

        Parametrised over the two ways a cell reaches the engine:
        ``reference`` is one ``simulate`` call per cell, ``batched``
        runs the whole grid as one campaign whose queue is drained in
        lease batches.  Where a cell runs must not change its result.
        """
        got = canonical_json(collect_parity() if route == "reference"
                             else collect_parity_batched())
        want = FIXTURE.read_text(encoding="utf-8")
        assert got == want, (
            "SimResult parity broken: a change altered a simulated "
            "outcome.  If the change is intentional, regenerate the "
            "fixture (see repro/perf/parity.py) and bump "
            "CACHE_FORMAT_VERSION in the same commit.")

    def test_cache_fingerprints_unchanged(self):
        """Content-addressed cache keys are pinned alongside results.

        Warm caches must keep hitting: the cell key of a known cell
        and the default config fingerprint are frozen here.  (The pins
        were last regenerated when ``SimConfig`` lost its ``backend``
        field and ``CONFIG_SCHEMA_VERSION`` went to 3 — that change
        invalidated older caches by design.)
        """
        assert SimConfig().fingerprint() == (
            "46447651e66760fdd0b2879b64a0cb41"
            "0c8a38d2c8f76e465e935f6ba143f3f6")
        assert cell_key("2_MIX", "stream", "ICOUNT.2.8",
                        PARITY_CYCLES, PARITY_WARMUP, SimConfig()) == (
            "3cf035f3c46bf7d0e3d2acc8f584842b"
            "f054b360e14b3acb163e6191717fd531")
