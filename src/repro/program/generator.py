"""Synthetic program generator.

Builds a :class:`~repro.program.blocks.Program` from a
:class:`~repro.program.profiles.BenchmarkProfile` in three passes:

1. *Plan* — for each function, decide block count, block sizes and the
   terminator of every block (forward conditional, loop-back conditional,
   rare "break" conditional, direct jump, call, indirect jump, return).
2. *Layout* — assign contiguous addresses, functions back to back, so
   fall-through successors are implicit and frequently-sequential paths
   stay sequential (the spike-optimised layout the paper relies on for
   long streams).
3. *Instantiate* — emit instructions, behaviours and address generators.

The plan keeps the call graph acyclic (function *i* only calls *j > i*),
bounding call depth and guaranteeing the architectural walker never
underflows its return stack on the correct path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from repro.isa.instruction import INSTR_BYTES, BranchKind, InstrClass, \
    StaticInstruction
from repro.program.behavior import BiasedBehavior, BranchBehavior, \
    IndirectBehavior, LoopBehavior, PatternBehavior
from repro.program.blocks import Function, Program, StaticBasicBlock
from repro.program.memgen import AddressGenerator, ChaseGenerator, \
    StackGenerator, StrideGenerator
from repro.program.profiles import SPECINT2000, BenchmarkProfile
from repro.util.bits import mix64, presalted, splitmix64

CODE_BASE = 0x0040_0000
"""Base address of the code segment."""

DATA_BASE = 0x2000_0000
"""Base address of the heap-like data segment."""

STACK_BASE = 0x7FF0_0000
"""Base address of the stack-like data segment."""

_STACK_REGION_BYTES = 8 * 1024
_MAX_BLOCK = 32
_MAX_LOOP_TRIP = 64
_CALL_REACH = 8          # function i may call (i, i + reach]
_ARCH_REGS = range(1, 31)  # r0 reserved as zero, r31 as link
_STRIDES = (8, 8, 16, 64)  # strided-walk steps in bytes, 8 twice as likely


@dataclass
class _BlockPlan:
    """Planned shape of one basic block before instantiation."""

    gamma: float                   # unit-scale size sample, see _block_size
    kind: BranchKind
    local_target: int = -1         # target block index within function
    callee_fid: int = -1           # for calls
    ind_targets: tuple[int, ...] = ()   # local block indices
    behavior_spec: tuple = ()      # ('loop', trip) / ('fwd', style, p) ...


@dataclass
class _FunctionPlan:
    blocks: list[_BlockPlan] = field(default_factory=list)


def _name_salt(name: str) -> int:
    return mix64(*name.encode())


def _block_size(gamma: float, mean: float) -> int:
    """Block size averaging ``mean`` dynamically, clipped to [1, 32].

    The +0.45 term compensates the truncation of the gamma sample and the
    execution weighting of loop bodies, calibrated against
    :func:`repro.trace.walker.dynamic_stats` over the twelve profiles.
    ``gamma`` is ``gammavariate(2.0, 1.0)``: CPython returns
    ``gammavariate(2.0, beta)`` as that same sample times ``beta``, so
    calibration rescales sizes without drawing the plan again.
    """
    if mean <= 1.0:
        return 1
    body = gamma * ((mean - 0.55) / 2.0)
    return max(1, min(_MAX_BLOCK, 1 + round(body)))


def _sample_trip(rng: random.Random, mean: float) -> int:
    trip = 2 + int(rng.expovariate(1.0 / max(mean - 2.0, 1.0)))
    return max(2, min(_MAX_LOOP_TRIP, trip))


def _plan_function(rng: random.Random, size_rng: random.Random,
                   profile: BenchmarkProfile, fid: int) -> _FunctionPlan:
    """Pass 1: choose block size samples and terminators for one function.

    Structure comes from ``rng`` and sizes from ``size_rng``: the
    calibration loop in :func:`generate_program` rescales sizes without
    perturbing the CFG, which keeps the measured dynamic block size a
    smooth function of the scale.  Neither stream depends on the scale,
    so one plan serves every calibration pass.
    """
    mean_blocks = profile.blocks_per_function
    n = max(4, min(3 * mean_blocks,
                   int(round(rng.gauss(mean_blocks, 0.25 * mean_blocks)))))
    plan = _FunctionPlan()
    can_call = fid + 1 < profile.n_functions
    loop_depth = 0   # crude nesting guard: avoid towers of backward branches

    for i in range(n):
        gamma = size_rng.gammavariate(2.0, 1.0)
        if i == n - 1:
            # Function epilogue: main loops forever, others return.
            if fid == 0:
                plan.blocks.append(_BlockPlan(gamma, BranchKind.JUMP,
                                              local_target=0))
            else:
                plan.blocks.append(_BlockPlan(gamma, BranchKind.RET))
            continue
        if i >= n - 3:
            # Keep the tail simple so forward targets always exist.
            plan.blocks.append(_BlockPlan(gamma, BranchKind.JUMP,
                                          local_target=i + 1))
            continue

        r = rng.random()
        if r < profile.p_loop and i > 0 and loop_depth < 2:
            # Loop bodies span several blocks so that streams (sequences
            # between taken branches) cover multiple basic blocks, as in
            # layout-optimised binaries.
            span = 2 + int(rng.expovariate(1.0 / 2.5))
            back = max(0, i - min(span, 8))
            trip = _sample_trip(rng, profile.loop_trip_mean)
            plan.blocks.append(_BlockPlan(gamma, BranchKind.COND,
                                          local_target=back,
                                          behavior_spec=("loop", trip)))
            loop_depth += 1
            continue
        loop_depth = max(0, loop_depth - 1)
        r -= profile.p_loop
        if r < profile.p_call and can_call:
            callee = rng.randint(fid + 1,
                                 min(profile.n_functions - 1,
                                     fid + _CALL_REACH))
            plan.blocks.append(_BlockPlan(gamma, BranchKind.CALL,
                                          callee_fid=callee))
            continue
        r -= profile.p_call
        if r < profile.p_jump:
            skip = 1 if rng.random() < 0.6 else 2
            plan.blocks.append(_BlockPlan(gamma, BranchKind.JUMP,
                                          local_target=min(i + skip, n - 1)))
            continue
        r -= profile.p_jump
        if r < profile.p_indirect:
            fanout = rng.randint(2, max(2, profile.indirect_fanout))
            hi = min(i + 8, n - 1)
            targets = tuple(sorted({rng.randint(i + 1, hi)
                                    for _ in range(fanout)}))
            plan.blocks.append(_BlockPlan(gamma, BranchKind.IND_JUMP,
                                          ind_targets=targets,
                                          behavior_spec=("ind",)))
            continue
        # Forward conditional: the bread and butter of the CFG.
        target = rng.randint(i + 2, min(i + 7, n - 1))
        style_roll = rng.random()
        if style_roll < profile.hard_branch_frac:
            spec = ("fwd_hard",)
        elif style_roll < profile.hard_branch_frac + 0.35:
            spec = ("fwd_pattern",)
        else:
            spec = ("fwd_rare",)
        plan.blocks.append(_BlockPlan(gamma, BranchKind.COND,
                                      local_target=target,
                                      behavior_spec=spec))
    _demote_hard_branches_in_loops(plan)
    return plan


def _demote_hard_branches_in_loops(plan: _FunctionPlan) -> None:
    """Downgrade history-resistant branches inside loop bodies.

    A noisy branch executing every loop iteration floods the global
    history with pseudo-random bits and destroys the learnability of
    *every* branch around it — its dynamic weight is amplified far
    beyond its static share.  Real hard branches correlate with their
    surroundings in ways a pure random stream cannot model, so we keep
    hard branches to straight-line (colder) code.
    """
    in_loop = set()
    for i, block_plan in enumerate(plan.blocks):
        if block_plan.kind == BranchKind.COND and block_plan.behavior_spec \
                and block_plan.behavior_spec[0] == "loop":
            in_loop.update(range(block_plan.local_target, i))
    for j in in_loop:
        block_plan = plan.blocks[j]
        if block_plan.behavior_spec \
                and block_plan.behavior_spec[0] == "fwd_hard":
            block_plan.behavior_spec = ("fwd_rare",)


def _make_pattern(rng: random.Random, taken_p: float) -> tuple[bool, ...]:
    # Short periods are fully learnable by a history predictor once the
    # surrounding control flow is stable — the realistic "easy" case.
    # Half are run-structured (e.g. T once every k): their phase is
    # recoverable from the branch's own recent outcome even when
    # neighbouring branches perturb the global history.
    length = rng.randint(2, 6)
    if rng.random() < 0.5:
        taken_slot = rng.randrange(length)
        return tuple(i == taken_slot for i in range(length))
    pattern = tuple(rng.random() < taken_p for _ in range(length))
    if any(pattern):
        return pattern
    # Guarantee at least one taken slot so the branch is not degenerate.
    idx = rng.randrange(length)
    return tuple(i == idx for i in range(length))


def _make_behavior(rng: random.Random, profile: BenchmarkProfile,
                   spec: tuple, salt: int,
                   ind_targets: tuple[int, ...] = ()) -> BranchBehavior:
    kind = spec[0]
    if kind == "loop":
        return LoopBehavior(spec[1])
    if kind == "ind":
        return IndirectBehavior(ind_targets, salt,
                                regularity=rng.uniform(0.6, 0.85))
    if kind == "fwd_hard":
        # Hard data-dependent branch: an irregular pattern whose period
        # exceeds the predictors' history length.  Learning it needs
        # many visits per history context — under table pressure this
        # is where gskew's aliasing tolerance pays off.  (A purely
        # random stream would be unlearnable by *any* history predictor
        # and its noise would poison the global history for every other
        # branch, so the period is kept within what a 10^5-instruction
        # window can partially learn.)
        jitter = rng.uniform(-0.08, 0.08)
        density = min(0.95, max(0.05, profile.hard_bias + jitter))
        length = rng.randint(24, 96)
        pattern = tuple(rng.random() < density for _ in range(length))
        return PatternBehavior(pattern)
    if kind == "fwd_pattern":
        return PatternBehavior(_make_pattern(rng, profile.fwd_taken_p))
    if kind == "fwd_rare":
        # Strongly biased branch.  Half are *never* taken (error checks,
        # cold paths): these are exactly what an FTB embeds inside its
        # fetch blocks while a BTB still terminates on them.  The rest
        # are rare "breaks" or nearly-always-taken guards.
        roll = rng.random()
        if roll < 0.5:
            return BiasedBehavior(0.0, salt)
        if roll < 0.8:
            return BiasedBehavior(rng.uniform(0.01, 0.06), salt)
        return BiasedBehavior(rng.uniform(0.94, 0.99), salt)
    raise ValueError(f"unknown behaviour spec {spec!r}")


def generate_program(profile: BenchmarkProfile, seed: int = 0) -> Program:
    """Generate the synthetic program for ``profile``.

    Deterministic in ``(profile, seed)``.  The returned program passes
    :meth:`Program.validate`.  Generation is closed-loop calibrated: the
    dynamic average basic-block size is measured on the correct path and
    block sizes are rescaled until it lands within a few percent of the
    profile's Table 1 target (execution weighting of loop bodies would
    otherwise skew individual seeds by 10-20%).
    """
    salt = mix64(seed, _name_salt(profile.name))
    rng = random.Random(salt)
    size_rng = random.Random(mix64(salt, 0x512E))
    plans = [_plan_function(rng, size_rng, profile, fid)
             for fid in range(profile.n_functions)]
    rng_state = rng.getstate()
    scale = 1.0
    program = _instantiate(profile, seed, salt, plans, rng_state, scale)
    for _ in range(4):
        measured = _measure_dynamic_block_size(program)
        rel = measured / profile.avg_bb_size
        if 0.96 <= rel <= 1.04:
            break
        scale = min(2.5, max(0.4, scale / rel))
        program = _instantiate(profile, seed, salt, plans, rng_state, scale)
    return program


def _measure_dynamic_block_size(program: Program,
                                instructions: int = 50_000) -> float:
    """Dynamic instructions-per-branch along the correct path."""
    # Imported here to avoid a package-level cycle: repro.trace depends on
    # repro.program for its data types.
    from repro.trace.walker import correct_path_counts

    branches = correct_path_counts(program, instructions)[1]
    return instructions / max(branches, 1)


def _instantiate(profile: BenchmarkProfile, seed: int, salt: int,
                 plans: list[_FunctionPlan], rng_state: tuple,
                 size_scale: float) -> Program:
    """Passes 2 and 3: lay out the planned blocks and emit the program.

    ``rng_state`` is the structural generator's state after planning;
    each calibration pass restarts from it.  This loop is specialised
    for speed, yet makes exactly the draws of its readable form:

    * ``rng.choice(seq)`` is ``seq[_randbelow(len(seq))]``, inlined as
      CPython's rejection loop on ``getrandbits(len(seq).bit_length())``;
    * hash salts fold their constant :func:`mix64` prefixes once per
      program or function and finish with one :func:`splitmix64` round;
    * returns, calls and jumps ignore their terminator generator's
      draws, so they never seed one.

    ``tests/program/program_digests.json`` pins the output byte for
    byte; see :mod:`repro.program.digest`.
    """
    mean = profile.avg_bb_size * size_scale
    sizes = [[_block_size(block_plan.gamma, mean)
              for block_plan in plan.blocks] for plan in plans]

    # Pass 2: layout. Function f starts where f-1 ended.
    func_entry_addr: list[int] = []
    block_addr: list[list[int]] = []
    addr = CODE_BASE
    for fsizes in sizes:
        func_entry_addr.append(addr)
        addrs = []
        for size in fsizes:
            addrs.append(addr)
            addr += size * INSTR_BYTES
        block_addr.append(addrs)

    # Pass 3: instantiate.
    rng = random.Random()
    rng.setstate(rng_state)
    random_ = rng.random
    getrandbits = rng.getrandbits

    # Data regions.  The profile's working set is a *program* property:
    # all chase generators point into one shared heap region of ``ws_kb``
    # so the union of their footprints equals the working set, and stride
    # generators rotate through a few medium arrays.  Hot strided arrays
    # stay small: real ILP-class SPECint keeps its inner-loop data close
    # to L1-resident; the big working set is reached through the chase
    # generators over the heap region.
    ws_bytes = profile.ws_kb * 1024
    heap_bytes = max(ws_bytes, 4096)
    array_bytes = max(2 * 1024, min(16 * 1024, ws_bytes // 32))
    arrays = [DATA_BASE + heap_bytes + k * array_bytes for k in range(8)]
    next_array = 0
    # mix64(*prefix, n) == splitmix64(mix64(*prefix) ^ n) for 0 <= n < 2**64.
    memgen_prefix = mix64(salt, 0xDA7A)
    serial = 0

    load_frac = profile.load_frac
    store_frac = profile.store_frac
    mul_frac = profile.mul_frac
    fp_frac = profile.fp_frac
    chase_frac = profile.chase_frac
    chase_or_stride = profile.chase_frac + profile.stride_frac
    chase_chain_p = profile.chase_chain_p
    dep_window = profile.dep_window
    boost = _mix_boost(profile)
    n_regs = len(_ARCH_REGS)
    reg_bits = n_regs.bit_length()
    n_strides = len(_STRIDES)
    stride_bits = n_strides.bit_length()

    new_instr = StaticInstruction
    not_branch = BranchKind.NOT_BRANCH
    load, store = InstrClass.LOAD, InstrClass.STORE
    int_alu, int_mul, fp_alu = InstrClass.INT_ALU, InstrClass.INT_MUL, \
        InstrClass.FP_ALU
    branch = InstrClass.BRANCH
    cond, jump, call, ind_jump = BranchKind.COND, BranchKind.JUMP, \
        BranchKind.CALL, BranchKind.IND_JUMP
    ret = BranchKind.RET

    behaviors: list[BranchBehavior] = []
    memgens: list[AddressGenerator] = []
    blocks: list[StaticBasicBlock] = []
    functions: list[Function] = []
    sid = 0
    bid = 0

    for fid, plan in enumerate(plans):
        fsizes = sizes[fid]
        faddrs = block_addr[fid]
        term_prefix = mix64(salt, 0xBEAF, fid)
        behavior_prefix = mix64(salt, fid)
        block_ids: list[int] = []
        recent_dests: list[int] = []
        recent_alu_dests: list[int] = []
        last_load_dest = -1
        for local_idx, block_plan in enumerate(plan.blocks):
            start = faddrs[local_idx]
            size = fsizes[local_idx]
            instrs: list[StaticInstruction] = []
            append = instrs.append
            instr_addr = start
            for _ in range(size - 1):
                # One non-branch instruction with realistic dependences.
                r = random_() / boost
                n_recent = len(recent_dests)
                if n_recent:
                    roll = random_()
                    if roll < 0.25:
                        srcs = ()       # immediate/constant operands
                    else:
                        k = n_recent.bit_length()
                        i = getrandbits(k)
                        while i >= n_recent:
                            i = getrandbits(k)
                        if n_recent == 1 or roll < 0.70:
                            srcs = (recent_dests[i],)
                        else:
                            j = getrandbits(k)
                            while j >= n_recent:
                                j = getrandbits(k)
                            srcs = (recent_dests[i], recent_dests[j])
                else:
                    srcs = ()
                i = getrandbits(reg_bits)   # rng.choice(_ARCH_REGS)
                while i >= n_regs:
                    i = getrandbits(reg_bits)
                dest = _ARCH_REGS[i]
                # The class tests below are the readable chain
                # ``if r < f: ...; r -= f`` over load, store, mul and fp
                # fractions, with the same float subtractions.
                if r < load_frac or r - load_frac < store_frac:
                    # Address generator drawn from the profile's mix.
                    serial += 1
                    roll = random_()
                    if roll < chase_frac:
                        memgens.append(ChaseGenerator(
                            DATA_BASE, heap_bytes,
                            splitmix64(memgen_prefix ^ serial)))
                    elif roll < chase_or_stride:
                        base = arrays[next_array % len(arrays)]
                        next_array += 1
                        i = getrandbits(stride_bits)
                        while i >= n_strides:
                            i = getrandbits(stride_bits)
                        memgens.append(StrideGenerator(
                            base, _STRIDES[i], array_bytes))
                    else:
                        memgens.append(StackGenerator(
                            STACK_BASE, _STACK_REGION_BYTES,
                            splitmix64(memgen_prefix ^ serial)))
                    if r < load_frac:
                        if last_load_dest >= 0 \
                                and random_() < chase_chain_p:
                            srcs = (last_load_dest,)
                        append(new_instr(sid, instr_addr, load, not_branch,
                                         dest, srcs, 0, -1,
                                         len(memgens) - 1))
                        last_load_dest = dest
                    else:
                        dest = -1
                        append(new_instr(sid, instr_addr, store,
                                         not_branch, dest, srcs, 0, -1,
                                         len(memgens) - 1))
                else:
                    r -= load_frac
                    r -= store_frac
                    if r < mul_frac:
                        append(new_instr(sid, instr_addr, int_mul,
                                         not_branch, dest, srcs))
                    elif r - mul_frac < fp_frac:
                        append(new_instr(sid, instr_addr, fp_alu,
                                         not_branch, dest, srcs))
                    else:
                        append(new_instr(sid, instr_addr, int_alu,
                                         not_branch, dest, srcs))
                        # Branch conditions prefer these: induction-
                        # variable style operands that resolve in one
                        # cycle.
                        recent_alu_dests.append(dest)
                        if len(recent_alu_dests) > 4:
                            recent_alu_dests.pop(0)
                if dest >= 0:
                    recent_dests.append(dest)
                    if len(recent_dests) > dep_window:
                        recent_dests.pop(0)
                sid += 1
                instr_addr += INSTR_BYTES

            # The terminating branch.  Behaviour parameters are keyed by
            # structural position (fid, local_idx) so calibration
            # rescales block sizes without re-rolling loop trips or
            # branch biases.
            kind = block_plan.kind
            if kind == ret:
                term = new_instr(sid, instr_addr, branch, ret)
            elif kind == call:
                term = new_instr(sid, instr_addr, branch, call, 31, (),
                                 func_entry_addr[block_plan.callee_fid])
            elif kind == jump:
                term = new_instr(sid, instr_addr, branch, jump, -1, (),
                                 faddrs[block_plan.local_target])
            else:
                term_rng = random.Random(
                    splitmix64(term_prefix ^ local_idx))
                srcs = _pick_srcs(term_rng, recent_alu_dests
                                  if recent_alu_dests else recent_dests)
                behavior_salt = splitmix64(
                    presalted(splitmix64(behavior_prefix ^ local_idx))
                    ^ sid)
                if kind == cond:
                    behaviors.append(_make_behavior(
                        term_rng, profile, block_plan.behavior_spec,
                        behavior_salt))
                    term = new_instr(sid, instr_addr, branch, cond, -1,
                                     srcs, faddrs[block_plan.local_target],
                                     len(behaviors) - 1)
                elif kind == ind_jump:
                    behaviors.append(_make_behavior(
                        term_rng, profile, block_plan.behavior_spec,
                        behavior_salt,
                        ind_targets=tuple(faddrs[t] for t in
                                          block_plan.ind_targets)))
                    term = new_instr(sid, instr_addr, branch, ind_jump,
                                     -1, srcs, 0, len(behaviors) - 1)
                else:
                    raise ValueError(
                        f"unexpected terminator kind {kind!r}")
            append(term)
            sid += 1
            blocks.append(StaticBasicBlock(bid, fid, start, instrs))
            block_ids.append(bid)
            bid += 1
        functions.append(Function(fid, block_ids))

    return Program(profile.name, seed, functions, blocks, behaviors,
                   memgens)


def _mix_boost(profile: BenchmarkProfile) -> float:
    """Correction so the *dynamic* memory mix matches the profile.

    Profile fractions are per instruction, but only ``size - 1`` slots of
    each block are non-branch; small-block benchmarks (mcf) would
    otherwise under-shoot their load fraction substantially.
    """
    boost = profile.avg_bb_size / max(profile.avg_bb_size - 1.0, 1.0)
    mix = (profile.load_frac + profile.store_frac + profile.mul_frac
           + profile.fp_frac)
    return min(boost, 0.95 / mix)


def _pick_srcs(rng: random.Random,
               recent_dests: list[int]) -> tuple[int, ...]:
    """Branch-condition operands (the body loop inlines the same draws)."""
    if not recent_dests:
        return ()
    roll = rng.random()
    if roll < 0.25:
        return ()                       # immediate/constant operands
    if len(recent_dests) == 1 or roll < 0.70:
        return (rng.choice(recent_dests),)
    return (rng.choice(recent_dests), rng.choice(recent_dests))


@lru_cache(maxsize=64)
def program_for(name: str, seed: int = 0) -> Program:
    """Return the (cached) synthetic program for a SPECint2000 benchmark.

    Args:
        name: One of the twelve names in
            :data:`repro.program.profiles.SPECINT2000`.
        seed: Generation seed; programs are cached per (name, seed).
    """
    if name not in SPECINT2000:
        known = ", ".join(sorted(SPECINT2000))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}")
    return generate_program(SPECINT2000[name], seed)
