"""Tests for correct-path walking and workload characterisation."""

import pytest

from repro.isa.instruction import BranchKind, InstrClass, StaticInstruction
from repro.program import SPECINT2000, program_for
from repro.program.behavior import IndirectBehavior, LoopBehavior
from repro.program.blocks import Function, Program, StaticBasicBlock
from repro.program.generator import _measure_dynamic_block_size
from repro.trace import StreamSummary, dynamic_stats, walk


@pytest.fixture(scope="module")
def gzip():
    return program_for("gzip")


def _summaries(program, budgets):
    """StreamSummary at each budget, counted one :func:`walk` step at a time
    (the reference the block-level walker must reproduce)."""
    want = sorted(set(budgets))
    out = {}
    branches = taken = loads = stores = 0
    instructions = 0

    def snapshot():
        out[instructions] = StreamSummary(
            instructions=instructions,
            branches=branches,
            taken_branches=taken,
            avg_block_size=instructions / max(branches, 1),
            avg_stream_length=instructions / max(taken, 1),
            taken_rate=taken / max(branches, 1),
            load_frac=loads / max(instructions, 1),
            store_frac=stores / max(instructions, 1),
        )

    for static, was_taken, _ in walk(program, want[-1]):
        instructions += 1
        if static.is_branch:
            branches += 1
            taken += was_taken
        elif static.opclass == InstrClass.LOAD:
            loads += 1
        elif static.opclass == InstrClass.STORE:
            stores += 1
        if instructions in want:
            snapshot()
    return [out[b] for b in budgets]


def _mid_block_budget(program, at_least=10_000):
    """A budget whose last instruction is strictly inside a block."""
    prev_branch = True
    for count, (static, _, _) in enumerate(walk(program, 10 * at_least), 1):
        if count >= at_least and not static.is_branch and not prev_branch:
            return count
        prev_branch = static.is_branch
    raise AssertionError("no mid-block position found")


def _alu(sid, addr):
    return StaticInstruction(sid, addr, InstrClass.INT_ALU, dest=1)


def _mem(sid, addr, opclass):
    return StaticInstruction(sid, addr, opclass, dest=2, memgen=0)


def _branch(sid, addr, kind, target=0, behavior=-1):
    return StaticInstruction(sid, addr, InstrClass.BRANCH, kind=kind,
                             target_addr=target, behavior=behavior)


def awkward_program():
    """A total program built to stress the walker's corner cases.

    It has a block without a terminator that falls through into the
    next one, a loop branch targeting the middle of its own block, and
    an indirect jump into the middle of the entry block or straight
    into a function that then returns with an empty return stack.
    """
    blocks = [
        StaticBasicBlock(0, 0, 0x1000, [
            _mem(0, 0x1000, InstrClass.LOAD), _alu(1, 0x1004),
            _branch(2, 0x1008, BranchKind.CALL, 0x2000)]),
        StaticBasicBlock(1, 0, 0x100C, [
            _mem(3, 0x100C, InstrClass.STORE), _alu(4, 0x1010)]),
        StaticBasicBlock(2, 0, 0x1014, [
            _alu(5, 0x1014), _mem(6, 0x1018, InstrClass.LOAD),
            _branch(7, 0x101C, BranchKind.COND, 0x1018, behavior=0)]),
        StaticBasicBlock(3, 0, 0x1020, [
            _branch(8, 0x1020, BranchKind.IND_JUMP, behavior=1)]),
        StaticBasicBlock(4, 1, 0x2000, [
            _alu(9, 0x2000), _branch(10, 0x2004, BranchKind.RET)]),
    ]
    behaviors = [LoopBehavior(3),
                 IndirectBehavior((0x1004, 0x2000, 0x1014), salt=99,
                                  regularity=0.4)]
    return Program("awkward", 0, [Function(0, [0, 1, 2, 3]),
                                  Function(1, [4])], blocks, behaviors, [])


def escaping_program():
    """Two instructions, then a jump out of the code segment."""
    block = StaticBasicBlock(0, 0, 0x1000, [
        _alu(0, 0x1000), _branch(1, 0x1004, BranchKind.JUMP, 0x9000)])
    return Program("escaping", 0, [Function(0, [0])], [block], [], [])


def falling_program():
    """A single block with no terminator: execution runs off the end."""
    block = StaticBasicBlock(0, 0, 0x1000, [
        _alu(0, 0x1000), _mem(1, 0x1004, InstrClass.LOAD)])
    return Program("falling", 0, [Function(0, [0])], [block], [], [])


class TestWalk:
    def test_yields_requested_count(self, gzip):
        assert sum(1 for _ in walk(gzip, 1000)) == 1000

    def test_follows_control_flow(self, gzip):
        prev_next = gzip.entry_addr
        for static, taken, target in walk(gzip, 2000):
            assert static.addr == prev_next
            prev_next = target if taken else static.addr + 4

    def test_deterministic(self, gzip):
        a = [(s.addr, t) for s, t, _ in walk(gzip, 3000)]
        b = [(s.addr, t) for s, t, _ in walk(gzip, 3000)]
        assert a == b


class TestDynamicStats:
    def test_consistency(self, gzip):
        stats = dynamic_stats(gzip, 20_000)
        assert stats.instructions == 20_000
        assert 0 < stats.taken_branches <= stats.branches
        assert stats.avg_block_size == pytest.approx(
            stats.instructions / stats.branches)
        assert stats.avg_stream_length == pytest.approx(
            stats.instructions / stats.taken_branches)
        assert stats.avg_stream_length >= stats.avg_block_size

    def test_rates_in_unit_interval(self, gzip):
        stats = dynamic_stats(gzip, 20_000)
        assert 0 < stats.taken_rate < 1
        assert 0 < stats.load_frac < 1
        assert 0 <= stats.store_frac < 1

    def test_empty_budget(self, gzip):
        assert dynamic_stats(gzip, 0) == StreamSummary(
            0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)


class TestBlockWalkerEquivalence:
    """The block-level walker matches the per-instruction :func:`walk`."""

    @pytest.mark.parametrize("name", sorted(SPECINT2000))
    def test_every_profile(self, name):
        program = program_for(name)
        budgets = [1, _mid_block_budget(program), 50_000, 200_000]
        for budget, want in zip(budgets, _summaries(program, budgets)):
            assert dynamic_stats(program, budget) == want, (name, budget)

    def test_calibration_measure_matches(self, gzip):
        want = _summaries(gzip, [50_000])[0]
        assert _measure_dynamic_block_size(gzip) == \
            50_000 / want.branches

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 6, 7, 12, 13, 100,
                                        1_001, 4_096])
    def test_awkward_program(self, budget):
        program = awkward_program()
        assert dynamic_stats(program, budget) == \
            _summaries(program, [budget])[0]

    def test_awkward_program_reaches_every_corner(self):
        steps = list(walk(awkward_program(), 4_096))
        assert {static.addr for static, _, _ in steps} == \
            {0x1000 + 4 * k for k in range(9)} | {0x2000, 0x2004}
        returns = {target for static, _, target in steps
                   if static.kind == BranchKind.RET}
        # 0x100C: a matched call; 0x1000: the empty-stack restart.
        assert returns == {0x100C, 0x1000}

    @pytest.mark.parametrize("factory", [escaping_program,
                                         falling_program])
    def test_budget_ending_before_unmapped_pc(self, factory):
        program = factory()
        for budget in (1, 2):
            assert dynamic_stats(program, budget) == \
                _summaries(program, [budget])[0]


class TestUnmappedPc:
    @pytest.mark.parametrize("factory", [escaping_program,
                                         falling_program])
    def test_walk_raises(self, factory):
        with pytest.raises(RuntimeError, match="unmapped"):
            list(walk(factory(), 3))

    @pytest.mark.parametrize("factory", [escaping_program,
                                         falling_program])
    def test_dynamic_stats_raises(self, factory):
        with pytest.raises(RuntimeError, match="unmapped"):
            dynamic_stats(factory(), 3)

    @pytest.mark.parametrize("factory", [escaping_program,
                                         falling_program])
    def test_calibration_raises(self, factory):
        with pytest.raises(RuntimeError, match="unmapped"):
            _measure_dynamic_block_size(factory())
