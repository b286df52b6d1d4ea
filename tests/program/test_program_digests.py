"""Byte-identity pin for the program generator.

The generator's instantiation loop is hand-specialised (inlined
``random.choice``, folded hash prefixes), so every generated program is
pinned by the SHA-256 of its canonical rendering.  The fixture was
recorded from the readable pre-specialisation generator; it may be
re-recorded only for a deliberate generator change, under the same
rule as golden parity (see :mod:`repro.program.digest`).
"""

import json
from pathlib import Path

import pytest

from repro.program import SPECINT2000, program_for
from repro.program.digest import DIGEST_SEEDS, canonical_rendering, \
    digest_label, program_digest

FIXTURE = Path(__file__).with_name("program_digests.json")
PINNED = json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_profile_and_seed():
    assert set(PINNED) == {digest_label(name, seed)
                           for name in SPECINT2000 for seed in DIGEST_SEEDS}


@pytest.mark.parametrize("seed", DIGEST_SEEDS)
@pytest.mark.parametrize("name", sorted(SPECINT2000))
def test_program_matches_pinned_digest(name, seed):
    assert program_digest(program_for(name, seed)) == \
        PINNED[digest_label(name, seed)], (
            f"{name} seed {seed}: the generator no longer reproduces the "
            "pinned program byte for byte")


def test_rendering_covers_every_field():
    text = canonical_rendering(program_for("mcf"))
    for needle in ("block 0 fid=0", "target_addr=", "memgen=", "srcs=(",
                   "behavior 0 ", "LoopBehavior(trip=", "_h=",
                   "StrideGenerator(base=", "ChaseGenerator(base="):
        assert needle in text
