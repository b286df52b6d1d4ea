"""Canonical rendering and SHA-256 identity of generated programs.

The generator is hand-specialised for speed, so its output is pinned
byte for byte: every block, every :class:`StaticInstruction` field and
every behaviour and address-generator slot is rendered to text and
hashed.  ``tests/program/program_digests.json`` holds the digests of
all twelve profiles at :data:`DIGEST_SEEDS`.  Re-record it only for a
deliberate generator change, under the same rule as golden parity (see
:mod:`repro.perf.parity`)::

    PYTHONPATH=src python -m repro.program.digest \
        > tests/program/program_digests.json
"""

from __future__ import annotations

import hashlib
import json

from repro.isa.instruction import StaticInstruction
from repro.program.blocks import Program

DIGEST_SEEDS = (0, 1009)
"""Program seeds pinned by the fixture (1009 is the held-out seed)."""

_INSTR_FIELDS = StaticInstruction.__slots__
"""Every instruction field; the enum fields render as ``<Enum.NAME: n>``."""


def _slots(obj) -> str:
    """``Class(slot=value, ...)`` over every slot of a behaviour/memgen."""
    names = [name for cls in type(obj).__mro__
             for name in getattr(cls, "__slots__", ())]
    body = ", ".join(f"{name}={getattr(obj, name)!r}" for name in names)
    return f"{type(obj).__name__}({body})"


def canonical_rendering(program: Program) -> str:
    """Render ``program`` to text that differs iff the programs differ."""
    lines = [f"program {program.name!r} seed={program.seed} "
             f"entry={program.entry_addr}"]
    for function in program.functions:
        lines.append(f"function {function.fid} blocks={function.block_ids}")
    for block in program.blocks:
        lines.append(f"block {block.bid} fid={block.fid} "
                     f"start={block.start_addr} size={len(block.instrs)}")
        for instr in block.instrs:
            lines.append(" ".join(f"{name}={getattr(instr, name)!r}"
                                  for name in _INSTR_FIELDS))
    for slot, behavior in enumerate(program.behaviors):
        lines.append(f"behavior {slot} {_slots(behavior)}")
    for slot, memgen in enumerate(program.memgens):
        lines.append(f"memgen {slot} {_slots(memgen)}")
    return "\n".join(lines) + "\n"


def program_digest(program: Program) -> str:
    """SHA-256 hex digest of :func:`canonical_rendering`."""
    return hashlib.sha256(
        canonical_rendering(program).encode("utf-8")).hexdigest()


def digest_label(name: str, seed: int) -> str:
    """Fixture key for one (profile, seed) program."""
    return f"{name}/seed{seed}"


def collect_digests(seeds=DIGEST_SEEDS) -> dict[str, str]:
    """Digests of every SPECint2000 profile at every seed in ``seeds``."""
    from repro.program.generator import generate_program
    from repro.program.profiles import SPECINT2000

    return {digest_label(name, seed):
            program_digest(generate_program(SPECINT2000[name], seed))
            for name in sorted(SPECINT2000) for seed in seeds}


def main() -> None:
    """CLI: print the digest fixture as canonical JSON."""
    import sys

    sys.stdout.write(json.dumps(collect_digests(), sort_keys=True,
                                indent=1) + "\n")


if __name__ == "__main__":
    main()
