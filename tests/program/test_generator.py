"""Tests for the synthetic program generator and SPECint2000 profiles."""

import pytest

from repro.isa.instruction import BranchKind, InstrClass
from repro.program import SPECINT2000, generate_program, program_for
from repro.program.digest import canonical_rendering
from repro.program.generator import CODE_BASE
from repro.trace import dynamic_stats

ALL_NAMES = sorted(SPECINT2000)


@pytest.fixture(scope="module", params=ALL_NAMES)
def program(request):
    return program_for(request.param)


class TestGeneratedStructure:
    def test_validates(self, program):
        program.validate()

    def test_every_block_ends_with_branch(self, program):
        for block in program.blocks:
            assert block.terminator is not None, \
                f"block {block.bid} of {program.name} has no terminator"

    def test_code_starts_at_base(self, program):
        assert program.entry_addr == CODE_BASE

    def test_function_finals_do_not_fall_through(self, program):
        for function in program.functions:
            last = program.blocks[function.block_ids[-1]]
            assert last.terminator.kind in (BranchKind.RET, BranchKind.JUMP)

    def test_call_graph_is_acyclic(self, program):
        entry_to_fid = {program.blocks[f.entry_bid].start_addr: f.fid
                        for f in program.functions}
        for block in program.blocks:
            term = block.terminator
            if term.kind == BranchKind.CALL:
                callee = entry_to_fid[term.target_addr]
                assert callee > block.fid

    def test_loads_and_stores_have_memgens(self, program):
        for block in program.blocks:
            for instr in block.instrs:
                if instr.opclass in (InstrClass.LOAD, InstrClass.STORE):
                    assert 0 <= instr.memgen < len(program.memgens)

    def test_conditionals_have_behaviors(self, program):
        for block in program.blocks:
            term = block.terminator
            if term.kind in (BranchKind.COND, BranchKind.IND_JUMP):
                assert 0 <= term.behavior < len(program.behaviors)


class TestDeterminism:
    def test_same_seed_same_program(self):
        a = generate_program(SPECINT2000["gzip"], seed=7)
        b = generate_program(SPECINT2000["gzip"], seed=7)
        assert canonical_rendering(a) == canonical_rendering(b)

    def test_different_seed_different_program(self):
        a = generate_program(SPECINT2000["gzip"], seed=1)
        b = generate_program(SPECINT2000["gzip"], seed=2)
        shapes_a = [a.blocks[i].size for i in range(50)]
        shapes_b = [b.blocks[i].size for i in range(50)]
        assert shapes_a != shapes_b

    def test_program_for_cached(self):
        assert program_for("mcf") is program_for("mcf")

    def test_program_for_unknown(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            program_for("doom")


class TestTable1Calibration:
    """The generator must land near the paper's Table 1 numbers."""

    def test_dynamic_block_size_near_target(self, program):
        target = SPECINT2000[program.name].avg_bb_size
        stats = dynamic_stats(program, 50_000)
        assert stats.avg_block_size == pytest.approx(target, rel=0.18), \
            (f"{program.name}: measured {stats.avg_block_size:.2f} vs "
             f"Table 1 {target:.2f}")

    def test_streams_longer_than_blocks(self, program):
        stats = dynamic_stats(program, 50_000)
        assert stats.avg_stream_length > stats.avg_block_size * 1.2

    def test_taken_rate_reasonable(self, program):
        stats = dynamic_stats(program, 50_000)
        assert 0.3 < stats.taken_rate < 0.8

    def test_static_memory_mix_matches_profile(self, program):
        profile = SPECINT2000[program.name]
        instrs = [i for b in program.blocks for i in b.instrs]
        loads = sum(1 for i in instrs if i.opclass == InstrClass.LOAD)
        stores = sum(1 for i in instrs if i.opclass == InstrClass.STORE)
        assert loads / len(instrs) == pytest.approx(profile.load_frac,
                                                    abs=0.04)
        assert stores / len(instrs) == pytest.approx(profile.store_frac,
                                                     abs=0.04)

    def test_dynamic_memory_mix_roughly_matches(self, program):
        # Hot loops weight specific blocks, so the dynamic mix is noisy;
        # only guard against gross distortion.
        profile = SPECINT2000[program.name]
        stats = dynamic_stats(program, 50_000)
        assert stats.load_frac == pytest.approx(profile.load_frac, abs=0.15)
        assert stats.store_frac == pytest.approx(profile.store_frac,
                                                 abs=0.10)


class TestProfileTable:
    def test_twelve_benchmarks(self):
        assert len(SPECINT2000) == 12

    def test_table1_values_recorded(self):
        # Spot-check the Table 1 numbers are transcribed correctly.
        assert SPECINT2000["gzip"].avg_bb_size == 11.02
        assert SPECINT2000["mcf"].avg_bb_size == 3.92
        assert SPECINT2000["twolf"].fast_forward_billion == 324.3
        assert SPECINT2000["gcc"].ref_input == "166.i"

    def test_memory_bound_classification(self):
        mem = {name for name, p in SPECINT2000.items() if p.memory_bound}
        assert mem == {"mcf", "twolf", "vpr", "perlbmk"}
