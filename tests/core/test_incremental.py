"""Differential tests for checkpointed-prefix evaluation.

``CostFunction`` runs every program as bound steps: edit-aware ``cost``
resumes each test from a prefix checkpoint, and every other evaluation
runs the whole program from the pooled state.  Both must equal
:func:`reference_cost`, Equations 9-11 over the ``Runner``'s own
outputs on the same backend: same live-out bits (including NaN
payloads), same signals, same CostResult — for any edit position, any
backend, and any interleaving with whole-program evaluations, accepts,
and re-anchoring of the checkpoint table.
"""

import gc
import math
import random

import pytest

from repro.kernels.libimf import LIBIMF_KERNELS
from repro.x86.assembler import assemble
from repro.x86.checkpoint import (Checkpoint, checkpoint_stride,
                                  flags_live_in, program_writes,
                                  union_writes)
from repro.x86.jit import compile_cache_stats
from repro.x86.locations import MemLoc
from repro.x86.scalar import d2u
from repro.x86.signals import SignalError
from repro.x86.state import MachineState
from repro.x86.stepper import bound_steps
from repro.x86.testcase import TestCase, uniform_testcases

from repro.core.cost import (CostConfig, CostFunction, CostResult,
                             location_ulp_distance)
from repro.core.perf import LatencyPerf
from repro.core.runner import Runner
from repro.core.search import SearchConfig, Stoke
from repro.core.strategies import McmcStrategy
from repro.core.transforms import Transforms

from tests.conftest import base_testcase, random_program

BACKENDS = ("jit", "emulator", "vector")

# A 12-instruction kernel with register arithmetic, a flags-producing
# compare + conditional move, and stores/loads through the scratch
# segment — every state component a checkpoint must carry.  Padded to 16
# slots so the stride is 4 and edits in the back half resume from
# boundary 8 or 12 (boundary 4 is unusable: flags are live across the
# ucomisd/cmovae pair).
KERNEL = assemble("""
    movq $2.0d, xmm1
    mulsd xmm1, xmm0
    movsd xmm0, 8(rbx)
    ucomisd xmm1, xmm0
    cmovae rax, rcx
    addsd 8(rbx), xmm0
    movapd xmm0, xmm2
    mulsd xmm2, xmm2
    movq $0.5d, xmm3
    mulsd xmm3, xmm2
    subsd xmm1, xmm2
    addsd xmm2, xmm0
""", total_slots=16)

LIVE_OUTS = ("xmm0",)


def kernel_tests(count, seed=5):
    return [base_testcase(seed + i) for i in range(count)]


def make_pair(target, tests, backend="jit", **cfg):
    """(edit-aware, whole-program) cost functions over shared tests."""
    config = CostConfig(**cfg)
    inc = CostFunction(target, tests, LIVE_OUTS, config, backend=backend)
    ref = CostFunction(target, tests, LIVE_OUTS, config, backend=backend)
    return inc, ref


def reference_cost(cost, program):
    """The oracle for ``cost.cost(program)``: Equations 9-11 over
    ``Runner.run_batch`` outputs of the target and ``program`` on
    ``cost``'s backend, each location read with
    :func:`location_ulp_distance`, with ``cost``'s eta, weights,
    compression and ⊕, and no checkpoints, bound steps or early reject.
    The tests are taken in ``cost``'s current order, on which only a
    floating-point sum depends."""
    cfg = cost.config
    runner = Runner(cost.runner.live_outs, backend=cost.runner.backend)
    want = runner.run_batch(runner.prepare(cost.target), cost.tests)
    got = runner.run_batch(runner.prepare(program), cost.tests)
    eq, signalled = 0.0, False
    for (expected, _), (values, signal) in zip(want, got):
        if signal is not None:
            err, signalled = cfg.ws, True
        else:
            err = 0.0
            for loc, bits, target_bits in zip(runner.live_outs, values,
                                              expected):
                excess = max(0.0, location_ulp_distance(loc, bits, target_bits)
                             - cfg.eta)
                if cfg.compress == "log2":
                    excess = math.log2(1.0 + excess)
                weight = cfg.wm if isinstance(loc, MemLoc) else cfg.wr
                err += weight * excess
        eq = max(eq, err) if cfg.reduction == "max" else eq + err
    perf = (LatencyPerf(cost.target.latency, scale=cfg.perf_scale)(program)
            if cfg.k != 0.0 else 0.0)
    return CostResult(total=eq + cfg.k * perf, eq=eq, perf=perf,
                      signalled=signalled)


def run_steps(slots, state):
    """Run ``slots`` on ``state`` as bound steps; the signal, or None."""
    try:
        for fn, operands in bound_steps(slots):
            fn(state, operands)
    except SignalError as exc:
        return exc.signal
    return None


def resumed_run(program, boundary, test):
    """Run ``program`` on ``test`` the way edit-aware evaluation does:
    the prefix as bound steps on the test's pooled state, a checkpoint of
    the prefix's write set applied after a full pooled reset, then the
    suffix as bound steps.  Returns ``(state, signal)``."""
    state = test.pooled_state()
    signal = run_steps(program.slots[:boundary], state)
    if signal is not None:
        return state, signal
    cp = Checkpoint.capture(state, program_writes(program, 0, boundary))
    state = test.pooled_state()
    cp.apply(state)
    return state, run_steps(program.slots[boundary:], state)


class TestStrideAndBoundaries:
    def test_short_programs_have_no_checkpoints(self):
        for n in range(4):
            assert checkpoint_stride(n) == 0

    def test_stride_tracks_sqrt(self):
        assert checkpoint_stride(4) == 2
        assert checkpoint_stride(16) == 4
        assert checkpoint_stride(37) == 6
        assert checkpoint_stride(64) == 8

    def test_flags_liveness_brackets_the_consumer(self):
        program = assemble("""
            ucomisd xmm1, xmm0
            cmovae rcx, rax
            addsd xmm0, xmm0
        """)
        # cmovae at 1 reads the flags ucomisd at 0 writes: only a resume
        # at index 1 would need prefix flag values.
        assert flags_live_in(program) == (False, True, False, False)

    def test_resume_boundary_steps_below_flags_dependence(self):
        lines = ["addsd xmm0, xmm0"] * 16
        lines[3] = "ucomisd xmm1, xmm0"
        lines[5] = "cmovae rcx, rax"
        program = assemble("\n".join(lines))
        assert checkpoint_stride(16) == 4
        cost = CostFunction(program, kernel_tests(2), LIVE_OUTS)
        # Edit at 9: boundary 8 has no live-in flags.
        assert cost._incremental_plan(program, 9).boundary == 8
        # Edit at 6: raw boundary 4 sits between ucomisd and cmovae,
        # where flags are live — no usable boundary remains.
        assert cost._incremental_plan(program, 6).boundary == 0
        # Edits at or below index 0 cannot be resumed.
        assert cost._incremental_plan(program, 0).boundary == 0

    def test_union_writes(self):
        a = ((1,), (0, 2), (0,), False)
        b = ((1, 3), (2,), (2,), True)
        assert union_writes(a, b) == ((1, 3), (0, 2), (0, 2), True)

    def test_program_writes_covers_kernel_defs(self):
        gp, xl, xh, mem = program_writes(KERNEL)
        assert mem  # the movsd store
        assert 1 in gp  # cmovae writes rcx
        assert {0, 1, 2, 3}.issubset(set(xl))
        assert xl == xh  # conservative: XMM defs count both halves


class TestSuffixEntryPoints:
    """A checkpointed bound-step prefix plus a bound-step suffix equals
    one full run on each backend, at every flags-safe boundary."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_prefix_plus_suffix_equals_full_run(self, backend, seed):
        program = random_program(seed, 12)
        flags = flags_live_in(program)
        runner = Runner(LIVE_OUTS, backend=backend)
        prepared = runner.prepare(program)
        for tc in kernel_tests(3, seed=40 + seed):
            full = tc.build_state()
            full_signal = runner.execute_from(prepared, full)
            for boundary in range(1, 12):
                if flags[boundary]:
                    continue  # not a resumable split point
                state, signal = resumed_run(program, boundary, tc)
                # Straight-line code: a fault in either piece must
                # reproduce the full run's signal.
                assert signal == full_signal
                if signal is not None:
                    continue
                assert state.gp == full.gp
                assert state.xmm_lo == full.xmm_lo
                assert state.xmm_hi == full.xmm_hi
                assert [img for _seg, img in
                        state.mem.snapshot_writable()] == \
                    [img for _seg, img in full.mem.snapshot_writable()]


def walk_differential(backend, seed, steps=120, accept_every=7):
    """Random MCMC-style walk asserting edit-aware == oracle per step."""
    tests = kernel_tests(10, seed=seed)
    inc, _ = make_pair(KERNEL, tests, backend=backend)
    transforms = Transforms(KERNEL)
    rng = random.Random(seed)
    current = KERNEL
    for step in range(steps):
        proposal, _move, span = transforms.propose(rng, current)
        if proposal is None:
            continue
        got = inc.cost(proposal, edit_index=span)
        want = reference_cost(inc, proposal)
        assert got == want, (
            f"step {step}: edit-aware {got} != reference {want} "
            f"(edit span {span})")
        if step % accept_every == 0:
            current = proposal
            inc.set_current(proposal)
    assert inc.incremental_hits > 0


class TestIncrementalCostDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", (11, 23))
    def test_walk_matches_full_evaluation(self, backend, seed):
        walk_differential(backend, seed)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_walk_with_sum_reduction_and_eta(self, backend):
        tests = kernel_tests(8, seed=77)
        inc, _ = make_pair(KERNEL, tests, backend=backend, reduction="sum",
                           eta=4.0)
        transforms = Transforms(KERNEL)
        rng = random.Random(77)
        for _step in range(80):
            proposal, _move, span = transforms.propose(rng, KERNEL)
            if proposal is None:
                continue
            assert inc.cost(proposal, edit_index=span) == \
                reference_cost(inc, proposal)

    def test_interleaved_full_and_incremental_calls(self):
        # Resumed runs, whole-program runs and the oracle's Runner share
        # the pooled states; mixing them must not leak state in any
        # direction.
        tests = kernel_tests(8, seed=31)
        inc, _ = make_pair(KERNEL, tests)
        transforms = Transforms(KERNEL)
        rng = random.Random(31)
        for step in range(60):
            proposal, _move, span = transforms.propose(rng, KERNEL)
            if proposal is None:
                continue
            edit = span if step % 2 == 0 else None
            assert inc.cost(proposal, edit_index=edit) == \
                reference_cost(inc, proposal)

    def test_nan_payloads_survive_the_checkpoint_path(self):
        # A non-canonical quiet-NaN payload flowing through prefix and
        # suffix must read back bit-identically on the suffix path.
        payload_nan = 0x7FFC0000DEADBEEF
        tests = [base_testcase(3).replace("xmm0", payload_nan),
                 base_testcase(4).replace("xmm0", payload_nan | (1 << 63))]
        program = assemble("\n".join(["addsd xmm0, xmm0"] * 4
                                     + ["mulsd xmm1, xmm0"] * 4))
        runner = Runner(LIVE_OUTS)
        full = runner.run_batch(runner.prepare(program), tests)
        cost = CostFunction(program, tests, LIVE_OUTS)
        boundary = cost._incremental_plan(program, 5).boundary
        assert boundary > 0
        resumed = [resumed_run(program, boundary, tc) for tc in tests]
        assert [(runner.values_of(state), signal)
                for state, signal in resumed] == full

    def test_early_reject_paths_agree(self):
        # A resumed evaluation and a boundary-0 one at the same threshold
        # stop at the same chunk with the same result.  A completed
        # result (memoized) is the oracle's; a rejected one passed the
        # threshold on a subset of the tests, so its eq is at most the
        # oracle's.
        tests = kernel_tests(10, seed=13)
        inc, ref = make_pair(KERNEL, tests)
        transforms = Transforms(KERNEL)
        rng = random.Random(13)
        threshold = inc.cost(KERNEL).total + 1.0
        rejected = 0
        for _step in range(80):
            proposal, _move, span = transforms.propose(rng, KERNEL)
            if proposal is None:
                continue
            got = inc.cost(proposal, early_reject_above=threshold,
                           edit_index=span)
            want = ref.cost(proposal, early_reject_above=threshold)
            assert got == want
            oracle = reference_cost(inc, proposal)
            if proposal in inc._cache:
                assert got == oracle
            else:
                rejected += 1
                assert got.total > threshold
                assert got.eq <= oracle.eq
        assert rejected > 0


class TestFaultingPrograms:
    def _faulting_kernel(self, fault_slot):
        # rax holds an arbitrary 64-bit pattern in base_testcase, so a
        # load through it faults.
        lines = ["addsd xmm0, xmm0"] * 12
        lines[fault_slot] = "movsd (rax), xmm3"
        return assemble("\n".join(lines))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fault_slot", (1, 5, 10))
    def test_faults_agree_with_full_evaluation(self, backend, fault_slot):
        tests = kernel_tests(6, seed=50)
        target = assemble("\n".join(["addsd xmm0, xmm0"] * 12))
        inc, _ = make_pair(target, tests, backend=backend)
        rewrite = self._faulting_kernel(fault_slot)
        want = reference_cost(inc, rewrite)
        assert want.signalled
        for edit in (3, 6, 9, 11):
            got = inc.cost(rewrite, edit_index=edit)
            inc._cache.clear()  # force re-evaluation at the next edit
            assert got == want

    def test_prefix_fault_sentinel_is_reused(self):
        tests = kernel_tests(4, seed=51)
        target = assemble("\n".join(["addsd xmm0, xmm0"] * 12))
        inc, _ = make_pair(target, tests)
        rewrite = self._faulting_kernel(1)  # fault inside every prefix
        first = inc.cost(rewrite, edit_index=9)
        captures = inc.incremental_captures
        assert captures == len(tests)
        # Same prefix, different suffix edit: the fault sentinel must
        # satisfy the lookup without re-executing the prefix.
        other = rewrite.with_slot(10, assemble("mulsd xmm0, xmm0").slots[0])
        second = inc.cost(other, edit_index=10)
        assert first.signalled and second.signalled
        assert inc.incremental_captures == captures


def table_boundaries(cost):
    """The boundaries each test's checkpoint table holds, in test order."""
    return [sorted(table) for table in cost._checkpoints]


class TestCheckpointLifecycle:
    def test_accept_prunes_incompatible_prefixes(self):
        tests = kernel_tests(6)
        inc, _ = make_pair(KERNEL, tests)
        proposal = KERNEL.with_slot(9, assemble("mulsd xmm0, xmm0").slots[0])
        inc.cost(proposal, edit_index=9)  # resumes from boundary 8
        assert inc.incremental_hits == 1
        assert table_boundaries(inc) == [[8]] * len(tests)
        # Accept a program with a different slot 0: no boundary's prefix
        # is the new current program's, so the table empties.
        divergent = KERNEL.with_slot(0, assemble("movq $3.0d, xmm1").slots[0])
        inc.set_current(divergent)
        assert table_boundaries(inc) == [[]] * len(tests)
        assert inc._prefix_writes == {}
        # A second set_current with the same program is a no-op.
        inc.set_current(divergent)
        assert table_boundaries(inc) == [[]] * len(tests)

    def test_accept_keeps_shared_prefixes(self):
        tests = kernel_tests(6)
        inc, _ = make_pair(KERNEL, tests)
        proposal = KERNEL.with_slot(9, assemble("mulsd xmm0, xmm0").slots[0])
        inc.cost(proposal, edit_index=9)
        warm = [table[8] for table in inc._checkpoints]
        # The proposal shares slots[:8] with KERNEL, so accepting it must
        # keep every boundary-8 checkpoint warm.
        inc.set_current(proposal)
        assert [table[8] for table in inc._checkpoints] == warm
        assert list(inc._prefix_writes) == [8]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_walk_without_set_current_matches_full_evaluation(self, backend):
        # ``current`` moves but set_current is never called: every
        # proposal whose prefix leaves the anchor's re-anchors the table.
        tests = kernel_tests(8, seed=9)
        inc, _ = make_pair(KERNEL, tests, backend=backend)
        transforms = Transforms(KERNEL)
        rng = random.Random(9)
        current = KERNEL
        for _step in range(60):
            proposal, _move, span = transforms.propose(rng, current)
            if proposal is None:
                continue
            assert inc.cost(proposal, edit_index=span) == \
                reference_cost(inc, proposal)
            current = proposal
        assert inc.incremental_hits > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dishonest_edit_index_matches_full_evaluation(self, backend):
        tests = kernel_tests(6)
        inc, _ = make_pair(KERNEL, tests, backend=backend)
        inc.set_current(KERNEL)
        warm = KERNEL.with_slot(9, assemble("mulsd xmm0, xmm0").slots[0])
        assert inc.cost(warm, edit_index=9) == reference_cost(inc, warm)
        assert table_boundaries(inc) == [[8]] * len(tests)
        # Differs from the anchor at slot 1 but reports edit 9: the
        # boundary-8 checkpoints of KERNEL's prefix must not be applied.
        rewrite = warm.with_slot(1, assemble("addsd xmm1, xmm0").slots[0])
        captures = inc.incremental_captures
        assert inc.cost(rewrite, edit_index=9) == \
            reference_cost(inc, rewrite)
        assert inc.incremental_hits == 2
        assert inc.incremental_captures == captures + len(tests)
        assert inc._anchor == rewrite.slots

    def test_entries_sit_at_flags_safe_stride_multiples(self):
        # Each cost call adds entries only at its plan's boundary, a
        # flags-safe stride multiple below n of the proposal that needs
        # it, so a test holds at most one checkpoint per stride multiple.
        tests = kernel_tests(8, seed=19)
        inc, _ = make_pair(KERNEL, tests)
        transforms = Transforms(KERNEL)
        rng = random.Random(19)
        n = len(KERNEL.slots)
        stride = checkpoint_stride(n)
        multiples = set(range(stride, n, stride))
        current = KERNEL
        inc.set_current(current)
        for step in range(120):
            proposal, _move, span = transforms.propose(rng, current)
            if proposal is None:
                continue
            before = [set(table) for table in inc._checkpoints]
            assert inc.cost(proposal, edit_index=span) == \
                reference_cost(inc, proposal)
            flags = flags_live_in(proposal)
            for old, table in zip(before, inc._checkpoints):
                assert set(table) <= multiples
                for boundary in set(table) - old:
                    assert boundary <= span and not flags[boundary]
            if step % 3 == 0:
                current = proposal
                inc.set_current(current)
        assert inc.incremental_captures > 0

    def test_repeated_test_object_gets_its_own_state(self):
        # The second slot of a test object listed twice holds an equal
        # copy, so the two slots never share a pooled state or a
        # checkpoint table, and the plan resumes both from boundary 8.
        tc = base_testcase(1)
        inc, _ = make_pair(KERNEL, [tc, tc, base_testcase(2)])
        assert inc.tests[0] is tc and inc.tests[1] is not tc
        assert inc.tests[1].inputs == tc.inputs
        rewrite = KERNEL.with_slot(8, assemble("mulsd xmm1, xmm0").slots[0])
        assert inc.cost(rewrite, edit_index=8) == reference_cost(inc, rewrite)
        assert inc.incremental_hits == 1
        assert table_boundaries(inc) == [[8]] * 3

    def test_edit_at_zero_falls_back(self):
        tests = kernel_tests(4)
        inc, _ = make_pair(KERNEL, tests)
        rewrite = KERNEL.with_slot(0, assemble("movq $4.0d, xmm1").slots[0])
        assert inc.cost(rewrite, edit_index=0) == reference_cost(inc, rewrite)
        assert inc.incremental_fallbacks == 1

    def test_short_programs_fall_back(self):
        short = assemble("addsd xmm0, xmm0\nmulsd xmm1, xmm0")
        tests = kernel_tests(4)
        inc, _ = make_pair(short, tests)
        rewrite = short.with_slot(1, assemble("subsd xmm1, xmm0").slots[0])
        assert inc.cost(rewrite, edit_index=1) == reference_cost(inc, rewrite)
        assert inc.incremental_fallbacks == 1


class TestCompileFreeEvaluation:
    """Edit-aware evaluation interprets every proposal on every backend:
    boundary-0 plans, captures and suffixes alike."""

    def test_stale_flags_do_not_leak_into_a_run_from_slot_0(self):
        # rax = 7, rcx = rdx = 9; ucomisd 2.0 against 1.0 sets CF.
        tests = [base_testcase(seed).replace("rax", 7).replace("rcx", 9)
                 .replace("rdx", 9).replace("xmm0", d2u(1.0))
                 .replace("xmm1", d2u(2.0)) for seed in range(4)]
        target = assemble("""
            cmovbe rcx, rax
            addsd xmm2, xmm2
            addsd xmm2, xmm2
            addsd xmm2, xmm2
            addsd xmm2, xmm2
            addsd xmm2, xmm2
            ucomisd xmm1, xmm0
            addsd xmm2, xmm2
        """)
        inc = CostFunction(target, tests, ("rax",), CostConfig())
        late = target.with_slot(7, assemble("mulsd xmm2, xmm2").slots[0])
        early = target.with_slot(0, assemble("cmovbe rdx, rax").slots[0])
        # Both references run first: any later pooled reset clears the
        # flags, so a reference run in between would hide a leak.
        want_late = reference_cost(inc, late)
        want_early = reference_cost(inc, early)
        assert want_early.correct
        # An edit at 7 resumes from boundary 6: the interpreted suffix
        # runs the ucomisd and leaves CF=1 in every pooled state.
        assert inc.cost(late, edit_index=7) == want_late
        assert inc.incremental_hits == 1
        assert all(tc._pooled.flags["cf"] == 1 for tc in tests)
        # An edit at 0 runs every slot from the pooled state.  The pool
        # restores the test's clear flags, so cmovbe must not fire (rax
        # stays 7); with CF left over it would move 9 into rax.
        assert inc.cost(early, edit_index=0) == want_early
        assert inc.incremental_fallbacks == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_edit_aware_walk_compiles_nothing(self, backend):
        spec = LIBIMF_KERNELS["sin"]()
        tests = spec.testcases(random.Random(17), 16)
        inc = CostFunction(spec.program, tests, spec.live_outs, CostConfig(),
                           backend=backend)
        ref = CostFunction(spec.program, tests, spec.live_outs, CostConfig(),
                           backend=backend)
        transforms = Transforms(spec.program)
        rng = random.Random(17)
        current = spec.program
        walked = 0
        while walked < 200:
            proposal, _move, span = transforms.propose(rng, current)
            if proposal is None:
                continue
            walked += 1
            # An evaluation with no edit index and eq_fast run the
            # whole program as bound steps: they compile nothing either.
            before = compile_cache_stats()
            got = inc.cost(proposal, edit_index=span)
            whole = ref.cost(proposal)
            eq_fast = ref.eq_fast(proposal)
            after = compile_cache_stats()
            assert after["misses"] == before["misses"], f"proposal {walked}"
            assert after["hits"] == before["hits"], f"proposal {walked}"
            # The oracle runs the Runner, which compiles on jit; it runs
            # outside the measured window.
            want = reference_cost(inc, proposal)
            assert got == want, f"proposal {walked}"
            assert whole == want, f"proposal {walked}"
            assert eq_fast == (want.eq, want.signalled), f"proposal {walked}"
            if walked % 5 == 0:
                current = proposal
                inc.set_current(proposal)
        # Both plan kinds ran: resumed from a checkpoint (some of them
        # captured on demand) and boundary 0.  The counts are pinned: the
        # table captures exactly once per test, boundary and anchor
        # prefix, the same on every backend.
        assert inc.incremental_stats() == {
            "hits": 144, "fallbacks": 41, "captures": 1152}


class TestAdaptiveOrderingStability:
    def test_promote_skip_window(self):
        cf = CostFunction(KERNEL, kernel_tests(8), LIVE_OUTS, CostConfig())
        # Index 0 is always a skip (already at the front).
        cf._promote(0)
        assert cf.promote_skips == 1 and cf.promote_moves == 0
        # A fresh index is a real move...
        victim = id(cf.tests[5])
        cf._promote(5)
        assert cf.promote_moves == 1
        assert id(cf.tests[0]) == victim
        # ...but re-promoting it from inside the stability window is
        # skipped: the ladder's order is effectively unchanged.
        for seq in (cf.tests, cf.target_outputs, cf._expected,
                    cf._checkpoints):
            seq.insert(1, seq.pop(0))
        cf._promote(1)
        assert cf.promote_skips == 2 and cf.promote_moves == 1
        # Beyond the window the same test is moved again.
        far = cf._PROMOTE_WINDOW + 2
        for seq in (cf.tests, cf.target_outputs, cf._expected,
                    cf._checkpoints):
            seq.insert(far, seq.pop(1))
        cf._promote(far)
        assert cf.promote_moves == 2
        assert id(cf.tests[0]) == victim


class TestDceMemoization:
    def test_dce_cache_counts_hits(self, tiny_target):
        tests = uniform_testcases(random.Random(0), 8, {"xmm0": (-4.0, 4.0)})
        stoke = Stoke(tiny_target, tests, ["xmm0"], CostConfig())
        cleaned = stoke._dce(tiny_target)
        assert stoke._dce_misses == 1 and stoke._dce_hits == 0
        assert stoke._dce(tiny_target) is cleaned
        assert stoke._dce_hits == 1

    def test_dce_cache_is_bounded(self, tiny_target):
        tests = uniform_testcases(random.Random(0), 8, {"xmm0": (-4.0, 4.0)})
        stoke = Stoke(tiny_target, tests, ["xmm0"], CostConfig())
        stoke.DCE_CACHE_CAP = 4
        for seed in range(10):
            stoke._dce(random_program(seed, 5))
        assert len(stoke._dce_cache) <= 4


def expected_trace(proposals, drops):
    """The ``(iteration, best cost)`` trace a chain of ``proposals``
    records at its 64 trace points, from the iterations at which the
    best cost drops (``drops``, starting with iteration 0)."""
    stride = max(1, proposals // 64)
    trace = []
    for iteration in range(proposals + 1):
        if iteration == 0 or iteration % stride == 0 \
                or iteration == proposals:
            best = [cost for at, cost in drops if at <= iteration][-1]
            trace.append((iteration, best))
    return trace


# exp's best correct rewrite in the search with repeated test objects.
EXP_REPEATED_TESTS_BEST = """\
movq $0x3ff71547652b82fe, xmm3
movsd xmm0, xmm1
mulsd xmm3, xmm1
cvtsd2si xmm1, rax
cvtsi2sd rax, xmm1
movq $0x3fe62e42fee00000, xmm3
mulsd xmm1, xmm3
subsd xmm3, xmm0
add $1023, rax
shl $52, rax
movq $0x3f56c16c1526449f, xmm3
addsd xmm3, xmm2
mulsd xmm0, xmm2
movq $0x3f81111112bf829c, xmm3
addsd xmm3, xmm2
mulsd xmm0, xmm2
movq $0x3fa55555555583a6, xmm3
addsd xmm3, xmm2
mulsd xmm0, xmm2
movq $0x3fc555555554bc55, xmm3
addsd xmm3, xmm2
mulsd xmm0, xmm2
movq $0x3fdfffffffffffa4, xmm3
addsd xmm3, xmm2
mulsd xmm0, xmm2
movq $0x3ff000000000001f, xmm3
addsd xmm3, xmm2
mulsd xmm0, xmm2
addsd xmm3, xmm2
movq rax, xmm1
mulsd xmm1, xmm2
movsd xmm2, xmm0
"""


class TestSearchPins:
    """Searches pinned to the results they gave when every evaluation
    with no edit index, every synthesis chain and every test set with a
    repeated test object ran through the backend's compiled program;
    each gave the same result on all three backends."""

    @staticmethod
    def _assert_result(result, proposals, best_cost, drops, accepted,
                       moves, best):
        assert repr(result.best_cost) == best_cost
        assert result.trace == expected_trace(
            proposals, [(at, float(cost)) for at, cost in drops])
        assert result.stats.accepted == accepted
        assert result.stats.moves_accepted == moves
        assert (None if result.best_correct is None
                else result.best_correct.to_text()) == best

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_optimization_search(self, tiny_target, backend):
        tests = uniform_testcases(random.Random(0), 12, {"xmm0": (-4.0, 4.0)})
        stoke = Stoke(tiny_target, tests, ["xmm0"],
                      CostConfig(eta=1e12, k=1.0), backend=backend)
        result = stoke.optimize(SearchConfig(proposals=800, seed=21,
                                             extra_slots=4))
        self._assert_result(
            result, 800, "20.0", [(0, "20.0")], 270,
            {"instruction": 50, "opcode": 16, "operand": 53, "swap": 151},
            tiny_target.to_text())
        assert result.stats.incremental["hits"] > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_synthesis_search(self, tiny_target, backend):
        tests = uniform_testcases(random.Random(0), 6, {"xmm0": (-4.0, 4.0)})
        stoke = Stoke(tiny_target, tests, ["xmm0"],
                      CostConfig(eta=1e12, k=0.0), backend=backend)
        result = stoke.optimize(SearchConfig(proposals=200, seed=3,
                                             init="empty"))
        self._assert_result(
            result, 200, "52.999839819782856", [(0, "52.999839819782856")],
            194,
            {"instruction": 49, "opcode": 56, "operand": 38, "swap": 51},
            None)
        # Synthesis chains resume from checkpoints like any other.
        assert result.stats.incremental["hits"] > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_search_with_repeated_test_objects(self, backend):
        spec = LIBIMF_KERNELS["exp"]()
        tests = spec.testcases(random.Random(5), 8)
        tests += [tests[0], tests[3]]
        stoke = Stoke(spec.program, tests, spec.live_outs,
                      CostConfig(eta=1e9, k=1.0), backend=backend)
        result = stoke.optimize(SearchConfig(proposals=400, seed=7))
        self._assert_result(
            result, 400, "14.8",
            [(0, "20.0"), (24, "19.2"), (30, "18.8"),
             (60, "18.133333333333333"), (66, "17.6"),
             (144, "17.466666666666665"), (150, "16.933333333333334"),
             (186, "16.4"), (240, "16.133333333333333"),
             (246, "15.866666666666667"), (270, "15.6"),
             (288, "15.066666666666666"), (294, "14.8")],
            92, {"instruction": 37, "opcode": 11, "operand": 31, "swap": 13},
            EXP_REPEATED_TESTS_BEST)
        # The repeated tests resume from checkpoints like the others.
        assert result.stats.incremental["hits"] > 0


class TestSearchEquivalence:
    def test_telemetry_exposes_incremental_counters(self, tiny_target):
        tests = uniform_testcases(random.Random(0), 6, {"xmm0": (-4.0, 4.0)})
        stoke = Stoke(tiny_target, tests, ["xmm0"], CostConfig(eta=1e12))
        result = stoke.optimize(SearchConfig(proposals=300, seed=1))
        tele = result.telemetry
        assert set(tele["incremental"]) == {"hits", "fallbacks", "captures"}
        assert set(tele["dce_cache"]) == {"hits", "misses"}
        assert set(tele["test_ordering"]) == {"moves", "skips"}


def live_instances(cls):
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, cls))


class TestRetention:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_finished_search_leaves_no_tests_alive(self, backend):
        # Checkpoints live and die with the cost function: once the
        # caller drops the Stoke and its tests, nothing else holds the
        # test cases or their template and pooled machine states.
        spec = LIBIMF_KERNELS["exp"]()
        before = (live_instances(TestCase), live_instances(MachineState))
        tests = spec.testcases(random.Random(3), 32)
        stoke = Stoke(spec.program, tests, spec.live_outs, CostConfig(),
                      backend=backend)
        result = stoke.search(SearchConfig(proposals=200, seed=3),
                              McmcStrategy())
        assert result.stats.incremental["captures"] > 0
        del stoke, tests, result
        assert (live_instances(TestCase),
                live_instances(MachineState)) == before


class TestVectorCheckpointComposition:
    """Edit-aware evaluation on the vector backend resumes from the same
    checkpoints and bound steps as the scalar backends, so its results
    equal full vector evaluation and both scalar backends, bit for bit."""

    def _full_reference(self, backend, program, tests):
        runner = Runner(LIVE_OUTS, backend=backend)
        return runner.run_batch(runner.prepare(program), tests)

    def test_vector_resume_with_mid_program_faulting_lane(self):
        from repro.x86.signals import Signal

        # Slot 6 loads through rax; one lane carries a wild pointer and
        # must fault there, in the suffix after boundary 6, while the
        # other lanes complete.  The sum reduction keeps the completed
        # lanes' errors in the cost.
        target = assemble("\n".join(["addsd xmm0, xmm0"] * 12))
        lines = ["addsd xmm0, xmm0"] * 12
        lines[6] = "movsd (rax), xmm3"
        program = assemble("\n".join(lines))
        good = [base_testcase(i).replace("rax", 0x4000) for i in range(3)]
        bad = base_testcase(7).replace("rax", 0xDEAD0000)
        tests = [good[0], bad, good[1], good[2]]
        refs = [self._full_reference(b, program, tests) for b in BACKENDS]
        assert refs[0] == refs[1] == refs[2]
        assert refs[0][1] == (None, Signal.SIGSEGV)
        costs = []
        for backend in BACKENDS:
            inc, _ = make_pair(target, tests, backend=backend,
                               reduction="sum")
            assert inc._incremental_plan(program, 6).boundary == 6
            got = inc.cost(program, edit_index=6)
            assert inc.incremental_hits == 1
            assert got == reference_cost(inc, program)
            assert got.signalled and got.eq > CostConfig().ws
            costs.append(got)
        assert costs[0] == costs[1] == costs[2]

    def test_vector_incremental_cost_matches_scalar_backends(self):
        # The whole edit-aware path (checkpoint capture, suffix resume,
        # promise-scoped pooled restore) through CostFunction must give
        # the oracle's CostResults, the same on all three backends.
        tests = kernel_tests(8, seed=67)
        transforms = Transforms(KERNEL)
        rng = random.Random(67)
        proposals = []
        current = KERNEL
        while len(proposals) < 40:
            proposal, _move, span = transforms.propose(rng, current)
            if proposal is not None:
                proposals.append((proposal, span))
        per_backend = []
        for backend in ("jit", "emulator", "vector"):
            inc, _ = make_pair(KERNEL, tests, backend=backend)
            costs = []
            for proposal, span in proposals:
                got = inc.cost(proposal, edit_index=span)
                assert got == reference_cost(inc, proposal)
                costs.append(got)
            assert inc.incremental_hits > 0
            per_backend.append(costs)
        assert per_backend[0] == per_backend[1] == per_backend[2]
