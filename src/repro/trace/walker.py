"""Correct-path trace iteration and workload characterisation.

Independent of any microarchitecture: these helpers replay the
architectural path of a program, which is how the synthetic workloads
are validated against the paper's Table 1 (dynamic basic-block size) and
how stream-length statistics — the quantity behind the stream fetch
engine's advantage — are measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instruction import INSTR_BYTES, BranchKind, InstrClass, \
    StaticInstruction
from repro.program.blocks import Program
from repro.trace.context import ThreadContext


def walk(program: Program, max_instructions: int):
    """Yield ``(static, taken, target)`` along the correct path.

    Args:
        program: Program to execute.
        max_instructions: Number of dynamic instructions to produce.
    """
    ctx = ThreadContext(program)
    for _ in range(max_instructions):
        static = program.instr_at(ctx.pc)
        if static is None:
            raise RuntimeError(f"architectural pc {ctx.pc:#x} unmapped")
        taken, target = ctx.step(static)
        yield static, taken, target


@dataclass(frozen=True)
class StreamSummary:
    """Dynamic characterisation of a program's correct path.

    Attributes:
        instructions: Dynamic instructions measured.
        branches: Dynamic branch instances (any kind).
        taken_branches: Dynamic taken-branch instances.
        avg_block_size: Instructions per branch — the paper's Table 1
            "Avg BB size".
        avg_stream_length: Instructions per taken branch — the expected
            fetch-block length of a perfect stream front-end.
        taken_rate: Fraction of branches that are taken.
        load_frac / store_frac: Dynamic memory-instruction mix.
    """

    instructions: int
    branches: int
    taken_branches: int
    avg_block_size: float
    avg_stream_length: float
    taken_rate: float
    load_frac: float
    store_frac: float


def dynamic_stats(program: Program,
                  max_instructions: int = 200_000) -> StreamSummary:
    """Measure dynamic block/stream statistics along the correct path."""
    instructions, branches, taken_branches, loads, stores = \
        correct_path_counts(program, max_instructions)
    return StreamSummary(
        instructions=instructions,
        branches=branches,
        taken_branches=taken_branches,
        avg_block_size=instructions / max(branches, 1),
        avg_stream_length=instructions / max(taken_branches, 1),
        taken_rate=taken_branches / max(branches, 1),
        load_frac=loads / max(instructions, 1),
        store_frac=stores / max(instructions, 1),
    )


_COND = int(BranchKind.COND)
_JUMP = int(BranchKind.JUMP)
_CALL = int(BranchKind.CALL)
_RET = int(BranchKind.RET)
_LOAD = int(InstrClass.LOAD)
_STORE = int(InstrClass.STORE)


def _scan_run(instr_at, pc: int) -> tuple:
    """Summarise the straight-line run starting at ``pc``.

    A run is the sequence of instructions a correct-path walk visits from
    ``pc`` up to and including the first branch.  Returns
    ``(size, loads, stores, kind, sid, target, fall, behavior)``: for a
    branch-terminated run ``kind`` is the terminator's int branch kind,
    ``fall`` its fall-through address and ``behavior`` the index of its
    behaviour (or -1); a run that reaches an unmapped address instead has
    ``kind == 0`` and ``fall`` set to that address, and a run starting at
    one has ``size == 0``.
    """
    size = loads = stores = 0
    addr = pc
    while True:
        static = instr_at(addr)
        if static is None:
            return size, loads, stores, 0, -1, 0, addr, -1
        size += 1
        if static.kind:
            return (size, loads, stores, int(static.kind), static.sid,
                    static.target_addr, addr + INSTR_BYTES, static.behavior)
        if static.op == _LOAD:
            loads += 1
        elif static.op == _STORE:
            stores += 1
        addr += INSTR_BYTES


def correct_path_counts(program: Program, max_instructions: int
                        ) -> tuple[int, int, int, int, int]:
    """Count ``(instructions, branches, taken, loads, stores)`` on the
    correct path, one straight-line run per step.

    Produces exactly what iterating :func:`walk` would: branch outcomes
    come from the same behaviour objects with per-``sid`` occurrence
    counters kept as :class:`ThreadContext` keeps them (including its
    restart at the entry on a return-stack underflow), a budget that ends
    mid-run stops on that instruction, and reaching an unmapped pc within
    the budget raises the same :class:`RuntimeError` as :func:`walk`.
    The run index is built per call and never stored on ``program``.
    """
    instr_at = program.instr_at
    behaviors = program.behaviors
    entry = program.entry_addr
    runs: dict[int, tuple] = {}
    runs_get = runs.get
    counts: dict[int, int] = {}
    counts_get = counts.get
    call_stack: list[int] = []
    push = call_stack.append
    pop = call_stack.pop
    pc = entry
    left = max_instructions
    branches = taken_branches = loads = stores = 0
    while left > 0:
        run = runs_get(pc)
        if run is None:
            run = runs[pc] = _scan_run(instr_at, pc)
        size, run_loads, run_stores, kind, sid, target, fall, behavior = run
        if size > left:
            # The budget ends inside the run, before its terminator.
            for k in range(left):
                op = instr_at(pc + k * INSTR_BYTES).op
                if op == _LOAD:
                    loads += 1
                elif op == _STORE:
                    stores += 1
            break
        left -= size
        loads += run_loads
        stores += run_stores
        if not kind:
            if not size:
                raise RuntimeError(f"architectural pc {pc:#x} unmapped")
            pc = fall
            continue
        branches += 1
        n = counts_get(sid, 0)
        counts[sid] = n + 1
        if kind == _COND:
            if behaviors[behavior].taken(n):
                taken_branches += 1
                pc = target
            else:
                pc = fall
            continue
        taken_branches += 1
        if kind == _JUMP:
            pc = target
        elif kind == _CALL:
            push(fall)
            pc = target
        elif kind == _RET:
            pc = pop() if call_stack else entry
        else:
            pc = behaviors[behavior].target(n)
    return (max(max_instructions, 0), branches, taken_branches, loads,
            stores)


def first_static(program: Program) -> StaticInstruction:
    """The entry instruction of a program (convenience for tests)."""
    static = program.instr_at(program.entry_addr)
    assert static is not None
    return static
