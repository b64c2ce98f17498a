"""Differential tests for checkpointed-prefix incremental evaluation.

The incremental path (edit-span aware ``CostFunction.cost``) must be
observationally identical to full evaluation: same live-out bits
(including NaN payloads), same signals, same CostResult — for any edit
position, any backend, and any interleaving with full evaluations,
accepts, and checkpoint eviction.
"""

import random

import pytest

from repro.kernels.libimf import LIBIMF_KERNELS
from repro.x86.assembler import assemble
from repro.x86.checkpoint import (DEFAULT_STORE_BUDGET, STORE, Checkpoint,
                                  checkpoint_store_stats, checkpoint_stride,
                                  clear_checkpoint_store, flags_live_in,
                                  program_writes, set_checkpoint_budget,
                                  union_writes)
from repro.x86.jit import compile_cache_stats
from repro.x86.scalar import d2u
from repro.x86.signals import SignalError
from repro.x86.stepper import bound_steps
from repro.x86.testcase import uniform_testcases

from repro.core.cost import CostConfig, CostFunction
from repro.core.runner import Runner
from repro.core.search import SearchConfig, Stoke
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


@pytest.fixture(autouse=True)
def isolated_store():
    """Each test starts from an empty global checkpoint store."""
    clear_checkpoint_store()
    set_checkpoint_budget(DEFAULT_STORE_BUDGET)
    yield
    clear_checkpoint_store()
    set_checkpoint_budget(DEFAULT_STORE_BUDGET)


def kernel_tests(count, seed=5):
    return [base_testcase(seed + i) for i in range(count)]


def make_pair(target, tests, backend="jit", **cfg):
    """(incremental, reference) cost functions over shared tests."""
    config = CostConfig(**cfg)
    inc = CostFunction(target, tests, LIVE_OUTS, config, backend=backend)
    ref = CostFunction(target, tests, LIVE_OUTS, config, backend=backend)
    return inc, ref


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
    """Random MCMC-style walk asserting incremental == full per step."""
    tests = kernel_tests(10, seed=seed)
    inc, ref = make_pair(KERNEL, tests, backend=backend)
    transforms = Transforms(KERNEL)
    rng = random.Random(seed)
    current = KERNEL
    for step in range(steps):
        proposal, _move, span = transforms.propose(rng, current)
        if proposal is None:
            continue
        got = inc.cost(proposal, edit_index=span)
        want = ref.cost(proposal)
        assert got == want, (
            f"step {step}: incremental {got} != full {want} "
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

    def test_walk_with_sum_reduction_and_eta(self):
        tests = kernel_tests(8, seed=77)
        inc, ref = make_pair(KERNEL, tests, reduction="sum", eta=4.0)
        transforms = Transforms(KERNEL)
        rng = random.Random(77)
        for _step in range(80):
            proposal, _move, span = transforms.propose(rng, KERNEL)
            if proposal is None:
                continue
            assert inc.cost(proposal, edit_index=span) == ref.cost(proposal)

    def test_interleaved_full_and_incremental_calls(self):
        # The pooled states are shared by both paths; mixing them must
        # not leak state in either direction.
        tests = kernel_tests(8, seed=31)
        inc, ref = make_pair(KERNEL, tests)
        transforms = Transforms(KERNEL)
        rng = random.Random(31)
        for step in range(60):
            proposal, _move, span = transforms.propose(rng, KERNEL)
            if proposal is None:
                continue
            edit = span if step % 2 == 0 else None
            assert inc.cost(proposal, edit_index=edit) == ref.cost(proposal)

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
        tests = kernel_tests(10, seed=13)
        inc, ref = make_pair(KERNEL, tests)
        transforms = Transforms(KERNEL)
        rng = random.Random(13)
        threshold = inc.cost(KERNEL).total + 1.0
        for _step in range(80):
            proposal, _move, span = transforms.propose(rng, KERNEL)
            if proposal is None:
                continue
            got = inc.cost(proposal, early_reject_above=threshold,
                           edit_index=span)
            want = ref.cost(proposal, early_reject_above=threshold)
            assert got == want


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
        inc, ref = make_pair(target, tests, backend=backend)
        rewrite = self._faulting_kernel(fault_slot)
        for edit in (3, 6, 9, 11):
            got = inc.cost(rewrite, edit_index=edit)
            inc._cache.clear()  # force re-evaluation at the next edit
            assert got == ref.cost(rewrite)
            ref._cache.clear()
            assert got.signalled

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


class TestCheckpointLifecycle:
    def test_accept_prunes_incompatible_prefixes(self):
        tests = kernel_tests(6)
        inc, _ = make_pair(KERNEL, tests)
        proposal = KERNEL.with_slot(9, assemble("mulsd xmm0, xmm0").slots[0])
        inc.cost(proposal, edit_index=9)  # resumes from boundary 8
        assert inc.incremental_hits == 1
        assert len(STORE) == len(tests)
        # Accept a program with a different slot 0: every checkpoint is
        # keyed by a prefix the new current program no longer shares.
        divergent = KERNEL.with_slot(0, assemble("movq $3.0d, xmm1").slots[0])
        inc.set_current(divergent)
        assert len(STORE) == 0
        assert all(not tc._checkpoints for tc in tests)
        before = checkpoint_store_stats()["invalidated"]
        assert before == len(tests)
        # A second prune with the same program is a no-op.
        inc.set_current(divergent)
        assert checkpoint_store_stats()["invalidated"] == before

    def test_accept_keeps_shared_prefixes(self):
        tests = kernel_tests(6)
        inc, _ = make_pair(KERNEL, tests)
        proposal = KERNEL.with_slot(9, assemble("mulsd xmm0, xmm0").slots[0])
        inc.cost(proposal, edit_index=9)
        # The proposal shares slots[:8] with KERNEL, so accepting it must
        # keep every boundary-8 checkpoint warm.
        inc.set_current(proposal)
        assert len(STORE) == len(tests)
        assert checkpoint_store_stats()["invalidated"] == 0

    def test_store_lru_respects_byte_budget(self):
        set_checkpoint_budget(2 * 1024)
        tests = kernel_tests(8, seed=9)
        inc, ref = make_pair(KERNEL, tests)
        transforms = Transforms(KERNEL)
        rng = random.Random(9)
        current = KERNEL
        for _step in range(60):
            proposal, _move, span = transforms.propose(rng, current)
            if proposal is None:
                continue
            assert inc.cost(proposal, edit_index=span) == ref.cost(proposal)
            current = proposal  # never prune: prefixes accumulate
        stats = checkpoint_store_stats()
        assert stats["evictions"] > 0
        assert stats["bytes"] <= 2 * 1024 or stats["entries"] <= 1
        # Evicted entries were deleted from their owning tests too.
        assert sum(len(tc._checkpoints) for tc in tests) == stats["entries"]

    def test_duplicate_test_objects_fall_back(self):
        tc = base_testcase(1)
        inc, ref = make_pair(KERNEL, [tc, tc])
        rewrite = KERNEL.with_slot(8, assemble("mulsd xmm1, xmm0").slots[0])
        assert inc.cost(rewrite, edit_index=8) == ref.cost(rewrite)
        assert inc.incremental_hits == 0
        assert inc.incremental_fallbacks == 1

    def test_edit_at_zero_falls_back(self):
        tests = kernel_tests(4)
        inc, ref = make_pair(KERNEL, tests)
        rewrite = KERNEL.with_slot(0, assemble("movq $4.0d, xmm1").slots[0])
        assert inc.cost(rewrite, edit_index=0) == ref.cost(rewrite)
        assert inc.incremental_fallbacks == 1

    def test_short_programs_fall_back(self):
        short = assemble("addsd xmm0, xmm0\nmulsd xmm1, xmm0")
        tests = kernel_tests(4)
        inc, ref = make_pair(short, tests)
        rewrite = short.with_slot(1, assemble("subsd xmm1, xmm0").slots[0])
        assert inc.cost(rewrite, edit_index=1) == ref.cost(rewrite)
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
        ref = CostFunction(target, tests, ("rax",), CostConfig())
        late = target.with_slot(7, assemble("mulsd xmm2, xmm2").slots[0])
        early = target.with_slot(0, assemble("cmovbe rdx, rax").slots[0])
        # Both references run first: any later pooled reset clears the
        # flags, so a reference run in between would hide a leak.
        want_late = ref.cost(late)
        want_early = ref.cost(early)
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

    def test_edit_aware_walk_compiles_nothing(self):
        spec = LIBIMF_KERNELS["sin"]()
        tests = spec.testcases(random.Random(17), 16)
        inc = CostFunction(spec.program, tests, spec.live_outs, CostConfig())
        ref = CostFunction(spec.program, tests, spec.live_outs, CostConfig())
        transforms = Transforms(spec.program)
        rng = random.Random(17)
        current = spec.program
        walked = 0
        while walked < 200:
            proposal, _move, span = transforms.propose(rng, current)
            if proposal is None:
                continue
            walked += 1
            before = compile_cache_stats()
            got = inc.cost(proposal, edit_index=span)
            after = compile_cache_stats()
            assert after["misses"] == before["misses"], f"proposal {walked}"
            assert after["hits"] == before["hits"], f"proposal {walked}"
            # The full-path reference compiles; it runs outside the
            # measured window.
            assert got == ref.cost(proposal), f"proposal {walked}"
            if walked % 5 == 0:
                current = proposal
                inc.set_current(proposal)
        # Both plan kinds ran: resumed from a checkpoint (some of them
        # captured on demand) and boundary 0.
        assert inc.incremental_hits > 0
        assert inc.incremental_fallbacks > 0
        assert inc.incremental_captures > 0


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
        for seq in (cf.tests, cf.target_outputs, cf._expected):
            seq.insert(1, seq.pop(0))
        cf._promote(1)
        assert cf.promote_skips == 2 and cf.promote_moves == 1
        # Beyond the window the same test is moved again.
        far = cf._PROMOTE_WINDOW + 2
        for seq in (cf.tests, cf.target_outputs, cf._expected):
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


class TestSearchEquivalence:
    def test_incremental_search_is_bit_identical(self, tiny_target):
        tests = uniform_testcases(random.Random(0), 12, {"xmm0": (-4.0, 4.0)})
        results = []
        for incremental in (False, True):
            stoke = Stoke(tiny_target, tests, ["xmm0"],
                          CostConfig(eta=1e12, k=1.0))
            config = SearchConfig(proposals=800, seed=21, extra_slots=4,
                                  incremental=incremental)
            results.append(stoke.optimize(config))
        off, on = results
        assert on.best_cost == off.best_cost
        assert on.trace == off.trace
        assert on.stats.accepted == off.stats.accepted
        assert on.stats.moves_accepted == off.stats.moves_accepted
        assert on.best_correct_latency == off.best_correct_latency
        assert on.stats.incremental["hits"] > 0
        assert off.stats.incremental["hits"] == 0

    def test_empty_init_disables_incremental(self, tiny_target):
        tests = uniform_testcases(random.Random(0), 6, {"xmm0": (-4.0, 4.0)})
        stoke = Stoke(tiny_target, tests, ["xmm0"],
                      CostConfig(eta=1e12, k=0.0))
        result = stoke.optimize(SearchConfig(proposals=200, seed=3,
                                             init="empty"))
        assert result.stats.incremental["hits"] == 0

    def test_telemetry_exposes_incremental_counters(self, tiny_target):
        tests = uniform_testcases(random.Random(0), 6, {"xmm0": (-4.0, 4.0)})
        stoke = Stoke(tiny_target, tests, ["xmm0"], CostConfig(eta=1e12))
        result = stoke.optimize(SearchConfig(proposals=300, seed=1))
        tele = result.telemetry
        for key in ("hits", "fallbacks", "captures", "checkpoint_bytes",
                    "checkpoint_entries", "store_evictions"):
            assert key in tele["incremental"]
        assert set(tele["dce_cache"]) == {"hits", "misses"}
        assert set(tele["test_ordering"]) == {"moves", "skips"}


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
            clear_checkpoint_store()
            inc, ref = make_pair(target, tests, backend=backend,
                                 reduction="sum")
            assert inc._incremental_plan(program, 6).boundary == 6
            got = inc.cost(program, edit_index=6)
            assert inc.incremental_hits == 1
            assert got == ref.cost(program)
            assert got.signalled and got.eq > CostConfig().ws
            costs.append(got)
        assert costs[0] == costs[1] == costs[2]

    def test_vector_incremental_cost_matches_scalar_backends(self):
        # The full incremental path (checkpoint capture, suffix resume,
        # promise-scoped pooled restore) through CostFunction must give
        # identical CostResults on all three backends.
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
            clear_checkpoint_store()
            inc, ref = make_pair(KERNEL, tests, backend=backend)
            costs = []
            for proposal, span in proposals:
                got = inc.cost(proposal, edit_index=span)
                assert got == ref.cost(proposal)
                costs.append(got)
            assert inc.incremental_hits > 0
            per_backend.append(costs)
        assert per_backend[0] == per_backend[1] == per_backend[2]
