"""Differential tests for the batched evaluator (Runner.run_batch).

The batched JIT entry point and the pooled reset-in-place machine states
must be observationally identical to the original one-fresh-state-per-
test dispatch: same live-out bits, same signals, no state leaking
between tests, batches, or programs.
"""

import random

import pytest

from repro.x86.assembler import assemble
from repro.x86.checkpoint import program_writes
from repro.x86.jit import compile_program
from repro.x86.locations import MemLoc
from repro.x86.signals import Signal

from repro.core.runner import (DIRTIES_ALL, DIRTIES_MEMORY, DIRTIES_NOTHING,
                               Runner)
from repro.kernels.libimf import LIBIMF_KERNELS

from tests.conftest import base_testcase, random_program

BACKENDS = ("jit", "emulator", "vector")


def reference_results(runner, program, tests):
    """(values, signal) per test via fresh independent states.

    This is the ground truth the pooled/batched paths must match: every
    test executes on its own ``build_state`` copy, so no reuse bug can
    contaminate it.
    """
    prepared = runner.prepare(program)
    results = []
    for tc in tests:
        state = tc.build_state()
        if runner.backend == "emulator":
            outcome = runner._emulator.run(prepared, state)
        else:
            outcome = prepared.run(state)
        if outcome.ok:
            results.append((tuple(loc.read(state)
                                  for loc in runner.live_outs), None))
        else:
            results.append((None, outcome.signal))
    return results


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", sorted(LIBIMF_KERNELS))
def test_run_batch_matches_reference_on_kernels(backend, kernel):
    spec = LIBIMF_KERNELS[kernel]()
    tests = spec.testcases(random.Random(3), 24)
    runner = Runner(spec.live_outs, backend=backend)
    expected = reference_results(runner, spec.program, tests)
    prepared = runner.prepare(spec.program)
    assert runner.run_batch(prepared, tests) == expected
    # and per-test dispatch through the pooled states agrees too
    assert [runner.run_values(prepared, tc) for tc in tests] == expected


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(8))
def test_run_batch_matches_reference_on_random_programs(backend, seed):
    # base_testcase inputs are arbitrary 64-bit patterns, so these
    # batches routinely carry NaN payloads (quiet and signalling) and
    # denormals through the batched path.
    program = random_program(seed, 12)
    tests = [base_testcase(seed * 100 + i) for i in range(12)]
    runner = Runner(["xmm0", "rax"], backend=backend)
    expected = reference_results(runner, program, tests)
    prepared = runner.prepare(program)
    assert runner.run_batch(prepared, tests) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_signalling_test_does_not_poison_batch(backend):
    # One test faults mid-batch; the others must still produce exactly
    # their independent-state results.
    program = assemble("""
        movsd (rax), xmm0
        addsd xmm0, xmm1
    """)
    good = [base_testcase(i).replace("rax", 0x4000) for i in range(3)]
    bad = base_testcase(9).replace("rax", 0xDEAD0000)
    tests = [good[0], bad, good[1], good[2]]
    runner = Runner(["xmm1"], backend=backend)
    expected = reference_results(runner, program, tests)
    assert expected[1] == (None, Signal.SIGSEGV)
    prepared = runner.prepare(program)
    results = runner.run_batch(prepared, tests)
    assert results == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_same_batch_twice_is_identical(backend):
    # State-pool no-contamination: rerunning the identical batch must
    # reproduce the identical bits even though every state was reused.
    spec = LIBIMF_KERNELS["sin"]()
    tests = spec.testcases(random.Random(7), 16)
    runner = Runner(spec.live_outs, backend=backend)
    prepared = runner.prepare(spec.program)
    first = runner.run_batch(prepared, tests)
    second = runner.run_batch(prepared, tests)
    assert first == second


@pytest.mark.parametrize("backend", BACKENDS)
def test_duplicate_test_object_in_batch(backend):
    # The same TestCase object twice in one batch cannot share a pooled
    # state; both slots must produce that test's own output.
    spec = LIBIMF_KERNELS["exp"]()
    tests = spec.testcases(random.Random(11), 4)
    batch = [tests[0], tests[1], tests[0], tests[0]]
    runner = Runner(spec.live_outs, backend=backend)
    expected = reference_results(runner, spec.program, batch)
    assert expected[0] == expected[2] == expected[3]
    prepared = runner.prepare(spec.program)
    assert runner.run_batch(prepared, batch) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_memory_writes_restored_between_runs(backend):
    # A program that clobbers the writable scratch segment must see the
    # original segment contents on every pooled execution.
    program = assemble("""
        movsd xmm0, (rbx)
        movsd 8(rbx), xmm1
    """)
    tc = base_testcase(5)
    runner = Runner(["xmm1", MemLoc("scratch", 0, "f64")], backend=backend)
    expected = reference_results(runner, program, [tc])
    prepared = runner.prepare(program)
    for _ in range(3):
        assert runner.run_values(prepared, tc) == expected[0]
    for _ in range(2):
        assert runner.run_batch(prepared, [tc]) == expected


def test_interleaved_programs_with_different_write_sets():
    # Program A writes xmm registers, program B a GP register and
    # memory.  Alternating them over the same pooled states exercises
    # the pool's promise: each handout restores the pages after B's
    # stores and nothing after A, whose registers never reach the state.
    prog_a = assemble("addsd xmm1, xmm0\nmulsd xmm0, xmm1")
    prog_b = assemble("mov rcx, rax\nmovsd xmm2, (rbx)")
    tests = [base_testcase(40 + i) for i in range(6)]
    runner = Runner(["xmm0", "xmm1", "rax", MemLoc("scratch", 0, "f64")],
                    backend="jit")
    expected_a = reference_results(runner, prog_a, tests)
    expected_b = reference_results(runner, prog_b, tests)
    a = runner.prepare(prog_a)
    b = runner.prepare(prog_b)
    assert not a.writes_mem and b.writes_mem
    for _ in range(3):
        assert runner.run_batch(a, tests) == expected_a
        assert runner.run_batch(b, tests) == expected_b


@pytest.mark.parametrize("seed", range(12))
def test_compiled_writes_covers_all_mutations(seed):
    # CompiledProgram.writes_mem is the state pool's promise for a
    # live-out run: a store it missed would never be reset.
    # program_writes is what the vector backend's write-back run
    # scatters; a register it omits would be lost.  Diff a fresh state
    # before/after a write-back run and check every change is covered.
    program = random_program(seed, 10)
    compiled = compile_program(program)
    gp_idx, xl_idx, xh_idx, writes_mem = program_writes(program)
    tc = base_testcase(seed)
    state = tc.build_state()
    before = state.snapshot()
    if not compiled.run(state).ok:
        return  # state undefined after a signal; nothing to check
    gp0, lo0, hi0, _flags, mem0 = before
    for i, (old, new) in enumerate(zip(gp0, state.gp)):
        if old != new:
            assert i in gp_idx
    for i, (old, new) in enumerate(zip(lo0, state.xmm_lo)):
        if old != new:
            assert i in xl_idx
    for i, (old, new) in enumerate(zip(hi0, state.xmm_hi)):
        if old != new:
            assert i in xh_idx
    if state.mem.snapshot_writable() != mem0:
        assert writes_mem and compiled.writes_mem


def _contents(state):
    """Value-equality view of a state (segment identity ignored)."""
    return (list(state.gp), list(state.xmm_lo), list(state.xmm_hi),
            [(seg.name, bytes(seg.data)) for seg in state.mem.segments])


def test_pooled_state_full_restore_without_promise():
    # pooled_state() with no write-set promise must fully restore on the
    # next handout, even after arbitrary mutation.
    tc = base_testcase(1)
    pristine = _contents(tc.build_state())
    state = tc.pooled_state()
    state.gp[0] = 0x1234
    state.xmm_lo[3] = 0x5678
    state.mem.store8(0x4000, 0xDEAD)
    state = tc.pooled_state()
    assert _contents(state) == pristine


def test_pooled_state_honors_write_promise_scope():
    # With a promise, only what it names is restored; a violation of
    # the promise (mutating a register) is visible on the next handout.
    # This pins the contract: the promise is load-bearing, not advisory.
    tc = base_testcase(2)
    pristine = _contents(tc.build_state())
    state = tc.pooled_state(writes_mem=True)  # "I will only write memory"
    state.mem.store8(0x4000, 0xDEAD)
    state.gp[1] = 0x2222  # outside the promise
    state = tc.pooled_state(writes_mem=False)  # "I will write nothing"
    assert _contents(state)[3] == pristine[3]  # promised pages restored
    assert state.gp[1] == 0x2222  # unpromised slot intentionally not
    state.xmm_lo[3] = 0x5678  # outside this promise too
    state = tc.pooled_state()
    assert state.xmm_lo[3] == 0x5678
    state = tc.pooled_state()
    assert _contents(state) == pristine  # no promise: a full restore


def test_pooled_flags_do_not_leak_across_backends():
    # rax = 7, rcx = 9; ucomisd 2.0 against 1.0 sets CF.  An edit-aware
    # jit CostFunction runs the ucomisd as a bound step in a resumed
    # suffix, on the tests' pooled states; an emulator Runner then runs
    # a flags reader on the same TestCase objects and must see the clear
    # flags a fresh state has, so cmovbe does not move 9 into rax.
    from repro.core.cost import CostConfig, CostFunction
    from repro.x86.emulator import Emulator
    from repro.x86.scalar import d2u

    tests = [base_testcase(seed).replace("rax", 7).replace("rcx", 9)
             .replace("xmm0", d2u(1.0)).replace("xmm1", d2u(2.0))
             for seed in range(4)]
    target = assemble("\n".join(["addsd xmm2, xmm2"] * 6
                                 + ["ucomisd xmm1, xmm0",
                                    "addsd xmm2, xmm2"]))
    cost = CostFunction(target, tests, ("xmm2",), CostConfig(),
                        backend="jit")
    proposal = target.with_slot(7, assemble("mulsd xmm2, xmm2").slots[0])
    cost.cost(proposal, edit_index=7)
    assert cost.incremental_hits == 1  # resumed from boundary 6
    cmov = assemble("cmovbe rcx, rax")
    runner = Runner(("rax",), backend="emulator")
    prepared = runner.prepare(cmov)
    for tc in tests:
        fresh = tc.build_state()
        assert Emulator().run(cmov, fresh).ok
        assert fresh.gp[0] == 7
        assert runner.run_values(prepared, tc) == ((fresh.gp[0],), None)


def test_segments_shared_with_reference():
    # Read-only segments must be shared (identity) between the pooled
    # state and fresh builds; writable ones must not be.
    tc = base_testcase(3)
    pooled = tc.pooled_state()
    fresh = tc.build_state()
    by_name_pooled = {seg.name: seg for seg in pooled.mem.segments}
    by_name_fresh = {seg.name: seg for seg in fresh.mem.segments}
    assert by_name_pooled["table"].data is by_name_fresh["table"].data
    assert by_name_pooled["scratch"].data is not by_name_fresh["scratch"].data


def test_make_reader_matches_loc_read():
    from repro.core.runner import resolve_locations
    from repro.x86.locations import make_reader

    program = random_program(17, 8)
    tc = base_testcase(17)
    state = tc.build_state()
    compile_program(program).run(state)
    locs = resolve_locations(
        ["xmm0", "xmm1:hd", "rax", "ecx", MemLoc("scratch", 8, "f64")])
    for loc in locs:
        assert make_reader(loc)(state) == loc.read(state)


# ---------------------------------------------------------------------------
# Special-value differential fuzz: adversarial IEEE-754 bit patterns
# driven through all three backends.  Any divergence found by widening
# these pools gets pinned here as a regression.

_SPECIAL_F64 = (
    0x7FF8000000000000,  # canonical quiet NaN
    0xFFF8000000000001,  # negative quiet NaN, nonzero payload
    0x7FF0000000000001,  # signalling NaN, minimal payload
    0x7FF4DEADBEEF0001,  # signalling NaN, arbitrary payload
    0x0000000000000000,  # +0.0
    0x8000000000000000,  # -0.0
    0x0000000000000001,  # smallest positive denormal
    0x800FFFFFFFFFFFFF,  # largest-magnitude negative denormal
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x7FEFFFFFFFFFFFFF,  # largest finite double
    0xBFF0000000000000,  # -1.0
)

_SPECIAL_F32 = (
    0x7FC00000,  # canonical quiet NaN
    0xFFC00001,  # negative quiet NaN, nonzero payload
    0x7F800001,  # signalling NaN
    0x00000000,  # +0.0
    0x80000000,  # -0.0
    0x00000001,  # smallest positive denormal
    0x7F800000,  # +inf
    0xFF800000,  # -inf
)


def _assert_backends_agree(program, live_outs, tests):
    """run_batch of every backend must agree bit-for-bit (values and
    signals); jit is the reference."""
    reference = None
    for backend in BACKENDS:
        runner = Runner(live_outs, backend=backend)
        results = runner.run_batch(runner.prepare(program), tests)
        if reference is None:
            reference = results
        else:
            assert results == reference, f"{backend} diverges from jit"


@pytest.mark.parametrize("kernel", sorted(LIBIMF_KERNELS))
def test_special_value_fuzz_on_kernels(kernel):
    # NaN payloads (quiet and signalling), signed zeros, denormals and
    # infinities pushed straight through each kernel's argument register.
    spec = LIBIMF_KERNELS[kernel]()
    base = spec.testcases(random.Random(19), 1)[0]
    tests = [base.replace("xmm0", bits) for bits in _SPECIAL_F64]
    _assert_backends_agree(spec.program, spec.live_outs, tests)


def test_special_value_fuzz_on_delta():
    # The AEK delta kernel: packed-single arithmetic and memory-resident
    # camera constants (the vector backend's per-lane fallback path).
    from repro.kernels.aek.vector import delta_kernel

    spec = delta_kernel()
    base = spec.testcases(random.Random(23), 1)[0]
    tests = [base.replace("xmm0:s0", bits) for bits in _SPECIAL_F32]
    tests += [base.replace("xmm1:s0", bits) for bits in _SPECIAL_F32]
    _assert_backends_agree(spec.program, spec.live_outs, tests)


@pytest.mark.parametrize("seed", range(6))
def test_special_value_fuzz_on_random_programs(seed):
    # Random programs over the full opcode surface with special values
    # planted in every input register the pools draw from.
    program = random_program(1000 + seed, 10)
    tests = []
    for i, bits in enumerate(_SPECIAL_F64):
        tc = base_testcase(seed * 37 + i)
        tc = tc.replace("xmm0", bits)
        tc = tc.replace("xmm1", _SPECIAL_F64[-1 - i])
        tc = tc.replace("xmm2", _SPECIAL_F64[(i + 3) % len(_SPECIAL_F64)])
        tests.append(tc)
    _assert_backends_agree(program, ["xmm0", "xmm1", "rax"], tests)


def test_vector_backend_faulting_lane_is_frozen():
    # A lane that signals mid-program must freeze: its later
    # instructions (including memory stores) must not execute, and the
    # surviving lanes' results must be unaffected.
    program = assemble("""
        movsd (rax), xmm0
        movsd xmm1, (rbx)
    """)
    good = [base_testcase(i).replace("rax", 0x4000) for i in range(3)]
    bad = base_testcase(4).replace("rax", 0xDEAD0000)
    tests = [good[0], bad, good[1], good[2]]
    runner = Runner([MemLoc("scratch", 0, "f64")], backend="vector")
    expected = reference_results(runner, program, tests)
    assert expected[1] == (None, Signal.SIGSEGV)
    prepared = runner.prepare(program)
    assert runner.run_batch(prepared, tests) == expected


# Live-outs the random programs below may or may not name: a
# memory-writing program that never touches xmm0 must still read it.
EXECUTE_LIVE_OUTS = ("xmm0", "xmm1:s1", "rax", "eax", "[scratch+8]:f64")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(12))
def test_execute_batch_from_returns_the_live_outs(backend, seed):
    # execute_batch_from returns what run_batch returns, on caller-owned
    # states; where dirties() says a run keeps register files and flags
    # out of the states, it does, and memory changes only for a program
    # that stores.
    runner = Runner(EXECUTE_LIVE_OUTS, backend=backend)
    program = random_program(seed, 10)
    tests = [base_testcase(seed * 5 + k) for k in range(4)]
    prepared = runner.prepare(program)
    states = [test.build_state() for test in tests]
    snapshots = [state.snapshot() for state in states]
    got = runner.execute_batch_from(prepared, states)
    assert got == reference_results(runner, program, tests)
    dirt = runner.dirties(prepared)
    assert dirt == (DIRTIES_ALL if backend == "emulator" else
                    DIRTIES_MEMORY if prepared.writes_mem else
                    DIRTIES_NOTHING)
    if dirt != DIRTIES_ALL:
        for state, snapshot in zip(states, snapshots):
            assert state.snapshot()[:4] == snapshot[:4]
            if dirt == DIRTIES_NOTHING:
                assert state.snapshot()[4] == snapshot[4]


@pytest.mark.parametrize("backend", BACKENDS)
def test_live_out_the_program_never_names(backend):
    # A memory-writing program on the vector backend gathers only the
    # registers it names into its lane arrays; xmm0 must still read the
    # test's value, in run_batch and in execute_batch_from.
    runner = Runner(["xmm0", "xmm1"], backend=backend)
    prepared = runner.prepare(assemble("movsd xmm1, 8(rbx)"))
    tests = [base_testcase(0), base_testcase(1)]
    want = [((test.value_of("xmm0"), test.value_of("xmm1")), None)
            for test in tests]
    assert runner.run_batch(prepared, tests) == want
    states = [test.build_state() for test in tests]
    assert runner.execute_batch_from(prepared, states) == want
