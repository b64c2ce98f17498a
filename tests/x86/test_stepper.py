"""Bound steps must be the emulator semantics, bit for bit.

The incremental evaluator interprets proposal suffixes through
``stepper.step_of`` closures; any drift between a specialized closure
and its opcode's generic ``exec_fn`` would silently corrupt search
results.  These tests pin every specialization to the generic
interpreter differentially, on random programs over the full opcode
registry and on the libimf kernels.  Lane batches (``run_lanes``) are
pinned to per-state bound steps the same way: registers, flags, memory
and signals, lane by lane.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.kernels.libimf import LIBIMF_KERNELS
from repro.x86.assembler import assemble
from repro.x86.signals import Signal, SignalError
from repro.x86.program import Program
from repro.x86.scalar import d2u
from repro.x86.stepper import (bound_steps, lane_step_of, lane_steps,
                               run_lanes, step_of)
from repro.x86.testcase import TestCase

from tests.conftest import (SCRATCH_BASE, base_testcase, random_instruction,
                            random_program)


def _run_generic(program, state):
    for instr in program.slots:
        if instr.is_unused:
            continue
        try:
            instr.spec.exec_fn(state, instr.operands)
        except SignalError as exc:
            return exc.signal
    return None


def _run_bound(program, state):
    for fn, operands in bound_steps(program.slots):
        try:
            fn(state, operands)
        except SignalError as exc:
            return exc.signal
    return None


def _assert_states_agree(program, s_a, s_b):
    text = program.to_text()
    assert s_a.gp == s_b.gp, text
    assert s_a.xmm_lo == s_b.xmm_lo, text
    assert s_a.xmm_hi == s_b.xmm_hi, text
    assert s_a.flags == s_b.flags, text
    for seg_a, seg_b in zip(s_a.mem.segments, s_b.mem.segments):
        if seg_a.writable:
            assert seg_a.data == seg_b.data, text


def _assert_differential(program, tc):
    s_gen = tc.build_state()
    s_bnd = tc.build_state()
    sig_gen = _run_generic(program, s_gen)
    sig_bnd = _run_bound(program, s_bnd)
    assert sig_gen == sig_bnd, program.to_text()
    if sig_gen is None:
        _assert_states_agree(program, s_gen, s_bnd)


class TestDifferential:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_programs(self, seed):
        program = random_program(seed, 14)
        _assert_differential(program, base_testcase(seed))

    @pytest.mark.parametrize("name", sorted(LIBIMF_KERNELS))
    def test_libimf_kernels(self, name):
        spec = LIBIMF_KERNELS[name]()
        for tc in spec.testcases(random.Random(3), 8):
            _assert_differential(spec.program, tc)

    def test_specialized_families_direct(self):
        # Dense coverage of every specialized shape, including NaN
        # payloads, the movq immediate path, and IEEE edge values through
        # the inlined addsd/subsd/mulsd conversions.
        program = assemble(
            "movq $0x7ff4000000abcdef, xmm1\n"  # signaling-NaN payload
            "movq $2.5d, xmm2\n"
            "movq rax, xmm3\n"
            "movq xmm2, xmm4\n"
            "addsd xmm1, xmm2\n"
            "subsd xmm2, xmm3\n"
            "mulsd xmm3, xmm4\n"
            "divsd xmm4, xmm2\n"
            "minsd xmm1, xmm3\n"
            "maxsd xmm3, xmm1\n"
            "movsd xmm1, xmm5\n"
            "movapd xmm5, xmm6\n"
            "ucomisd xmm2, xmm6\n"
            "movq $1e300d, xmm7\n"
            "mulsd xmm7, xmm7\n"               # overflow to +inf
            "movsd xmm7, xmm8\n"
            "subsd xmm7, xmm8\n"               # inf - inf
            "movq $1e-160d, xmm9\n"
            "mulsd xmm9, xmm9\n"               # denormal product
            "movq $-0.0d, xmm10\n"
            "addsd xmm10, xmm10\n"             # -0.0 + -0.0
        )
        for seed in range(6):
            _assert_differential(program, base_testcase(seed))
        state = base_testcase(0).build_state()
        assert _run_bound(program, state) is None
        lo = state.xmm_lo
        assert lo[7] == 0x7FF0000000000000
        assert lo[8] == 0x7FF8000000000000  # the canonical NaN
        assert 0 < lo[9] < 0x0010000000000000  # denormal, not flushed
        assert lo[10] == 0x8000000000000000


class TestBinding:
    def test_hot_shapes_are_specialized(self):
        # A silent fall-through to the generic exec_fn would be correct
        # but would quietly give back the interpreter's dispatch cost.
        for text in ("mulsd xmm1, xmm0", "addsd xmm2, xmm3",
                     "movsd xmm1, xmm2", "movapd xmm3, xmm4",
                     "movq $1.5d, xmm0", "movq xmm1, xmm2",
                     "ucomisd xmm1, xmm0"):
            instr = assemble(text).slots[0]
            fn, _ops = step_of(instr)
            assert fn is not instr.spec.exec_fn, text

    def test_memory_and_unknown_shapes_fall_back(self):
        for text in ("mulsd 8(rbx), xmm0", "movsd (rbx), xmm1",
                     "movsd xmm1, (rbx)", "cvtsd2ss xmm0, xmm1"):
            instr = assemble(text).slots[0]
            fn, ops = step_of(instr)
            assert fn is instr.spec.exec_fn, text
            assert ops == instr.operands

    def test_step_cache_reuses_bindings(self):
        # The binding is memoized on the instruction itself.
        instr = assemble("mulsd xmm1, xmm0").slots[0]
        assert step_of(instr) is step_of(instr)
        assert instr._step is step_of(instr)
        assert lane_step_of(instr) is lane_step_of(instr)
        assert lane_step_of(instr)[:2] == step_of(instr)

    def test_memos_do_not_pickle(self):
        instr = assemble("addsd xmm1, xmm0").slots[0]
        lane_step_of(instr)
        clone = pickle.loads(pickle.dumps(instr))
        assert clone == instr
        assert not hasattr(clone, "_step") and not hasattr(clone, "_lane")

    def test_hot_shapes_have_lane_forms(self):
        for text in ("mulsd xmm1, xmm0", "addsd xmm2, xmm3",
                     "subsd xmm0, xmm0", "movsd xmm1, xmm2",
                     "movq $1.5d, xmm0", "movq $0x7ff4000000000001, xmm4"):
            fn, ops, lane, named = lane_step_of(assemble(text).slots[0])
            assert lane is not None and named == (), text
        for text, regs in (("divsd xmm1, xmm0", (0, 1)),
                           ("movq xmm1, xmm2", (1, 2)),
                           ("movapd xmm3, xmm3", (3,)),
                           ("mulsd 8(rbx), xmm0", (0,)),
                           ("movsd (rbx), xmm1", (1,)),
                           ("cvtsi2sd rax, xmm5", (5,)),
                           ("add $1, rax", ())):
            fn, ops, lane, named = lane_step_of(assemble(text).slots[0])
            assert lane is None and named == regs, text


# -- lane batches -------------------------------------------------------------

_HOT = ("addsd", "subsd", "mulsd", "movsd", "movq")

def _hot_program(seed: int, length: int) -> Program:
    """Random programs over the full registry, half of their slots drawn
    from the opcodes with lane forms so that columns stay live across
    the steps that flush them."""
    rng = random.Random(seed)
    return Program([random_instruction(rng, _HOT if rng.random() < 0.5
                                       else None)
                    for _ in range(length)])


def _lane_testcase(seed: int, rbx: int = SCRATCH_BASE) -> TestCase:
    return base_testcase(seed).replace("rbx", rbx)


def _assert_lanes_match(program, tcs):
    """A lane batch over ``tcs`` equals bound steps on each test alone."""
    states = [tc.build_state() for tc in tcs]
    signals = run_lanes(lane_steps(program.slots), states)
    assert len(signals) == len(tcs)
    for tc, state, signal in zip(tcs, states, signals):
        ref = tc.build_state()
        assert signal == _run_bound(program, ref), program.to_text()
        if signal is None:
            _assert_states_agree(program, ref, state)
    return states, signals


def _xmm_testcase(values) -> TestCase:
    """Low halves of xmm0-xmm3 from floats or raw patterns."""
    inputs = {}
    for i, value in enumerate(values):
        bits = value if isinstance(value, int) else d2u(value)
        inputs[f"xmm{i}"] = bits
        inputs[f"xmm{i}:hd"] = 0x0123456789ABCDEF + i
    return TestCase(inputs)


_SNAN = 0x7FF0000000000DEF      # signaling NaN, payload 0xDEF
_SNAN_NEG = 0xFFF4000000ABCDEF  # negative signaling NaN
_QNAN = 0x7FF80000DEADBEEF      # quiet NaN with a payload
_QNAN_NEG = 0xFFF8000000000001
_DENORMAL = 0x0000000000000003
_SPECIALS = (0.0, -0.0, float("inf"), float("-inf"), 1.0, -2.5,
             5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             -1.7976931348623157e308, _SNAN, _SNAN_NEG, _QNAN, _QNAN_NEG,
             _DENORMAL, 0x8000000000000000)


class TestLanes:
    @pytest.mark.parametrize("lanes", (2, 3, 8, 23))
    @pytest.mark.parametrize("seed", range(12))
    def test_random_programs(self, lanes, seed):
        tcs = [_lane_testcase(1000 * seed + k) for k in range(lanes)]
        _assert_lanes_match(random_program(seed, 16), tcs)
        _assert_lanes_match(_hot_program(seed, 24), tcs)

    @pytest.mark.parametrize("name", sorted(LIBIMF_KERNELS))
    @pytest.mark.parametrize("lanes", (2, 8, 23))
    def test_libimf_kernels(self, name, lanes):
        spec = LIBIMF_KERNELS[name]()
        tcs = spec.testcases(random.Random(lanes), lanes)
        states, signals = _assert_lanes_match(spec.program, tcs)
        assert signals == [None] * lanes

    def test_nan_payloads_through_moves(self):
        # movq $imm and register movsd carry every pattern in the float
        # columns unchanged, signaling NaNs included; the high quad
        # movq $imm zeroes is written at flush, movsd keeps it.
        program = assemble(
            "movq $0x7ff0000000000def, xmm4\n"
            "movq $0xfff4000000abcdef, xmm5\n"
            "movq $0x7ff80000deadbeef, xmm6\n"
            "movsd xmm4, xmm7\n"
            "movsd xmm0, xmm8\n"
            "movsd xmm1, xmm0\n"
            "movsd xmm8, xmm1\n"
            "movsd xmm2, xmm2\n")
        tcs = [_xmm_testcase((_SNAN, _QNAN_NEG, _SNAN_NEG, 1.0)),
               _xmm_testcase((_QNAN, _SNAN, -0.0, _DENORMAL)),
               _xmm_testcase((float("inf"), -0.0, _QNAN, _SNAN_NEG))]
        states, signals = _assert_lanes_match(program, tcs)
        assert signals == [None] * 3
        for tc, state in zip(tcs, states):
            x0, x1, x2 = (tc.template_state().xmm_lo[i] for i in range(3))
            lo, hi = state.xmm_lo, state.xmm_hi
            assert (lo[4], lo[5], lo[6], lo[7]) == (
                _SNAN, _SNAN_NEG, _QNAN, _SNAN)
            assert (hi[4], hi[5], hi[6]) == (0, 0, 0)
            assert (lo[0], lo[1], lo[2], lo[8]) == (x1, x0, x2, x0)
            assert hi[0] == tc.template_state().xmm_hi[0]

    def test_arithmetic_specials(self):
        # inf - inf, 0 * inf and NaN operands give the canonical NaN;
        # -0 + -0, denormal products and overflow stay IEEE; lanes with
        # +inf and -inf results but no NaN take the rescan and keep them.
        program = assemble(
            "movsd xmm0, xmm4\n"
            "addsd xmm1, xmm4\n"
            "movsd xmm0, xmm5\n"
            "subsd xmm1, xmm5\n"
            "movsd xmm0, xmm6\n"
            "mulsd xmm1, xmm6\n"
            "mulsd xmm2, xmm2\n"
            "movq $0x7ff0000000000000, xmm7\n"
            "subsd xmm7, xmm7\n"
            "movq $-0.0d, xmm8\n"
            "addsd xmm8, xmm8\n"
            "movq $1e-160d, xmm9\n"
            "mulsd xmm9, xmm9\n"
            "addsd xmm3, xmm3\n")
        rng = random.Random(5)
        tcs = [_xmm_testcase([rng.choice(_SPECIALS) for _ in range(4)])
               for _ in range(23)]
        tcs.append(_xmm_testcase((float("inf"), float("-inf"), 0.0, 1.0)))
        tcs.append(_xmm_testcase((float("-inf"), float("-inf"), 0.0, 1.0)))
        tcs.append(_xmm_testcase((1.7976931348623157e308,
                                  1.7976931348623157e308, 5e-324, 1.0)))
        states, signals = _assert_lanes_match(program, tcs)
        assert signals == [None] * len(tcs)
        for state in states:
            lo = state.xmm_lo
            assert lo[7] == 0x7FF8000000000000  # inf - inf: canonical
            assert lo[8] == 0x8000000000000000  # -0 + -0
            assert 0 < lo[9] < 0x0010000000000000  # denormal, not flushed
        inf_lanes = states[-3].xmm_lo
        assert inf_lanes[4] == 0x7FF8000000000000  # inf + -inf
        assert inf_lanes[5] == 0x7FF0000000000000  # inf - -inf
        assert inf_lanes[6] == 0xFFF0000000000000  # inf * -inf
        assert states[-1].xmm_lo[4] == 0x7FF0000000000000  # overflow
        for state, tc in zip(states, tcs):
            if tc.template_state().xmm_lo[0] in (_SNAN, _QNAN, _SNAN_NEG):
                assert state.xmm_lo[4] == 0x7FF8000000000000

    def test_lanes_fault_at_different_steps(self):
        # rbx walks off the end of the 64-byte scratch segment: each
        # faulting lane faults at its first access past the end (steps
        # 3, 5, 8 and 10), and the rest keep going.
        program = assemble(
            "movq $2.5d, xmm4\n"
            "mulsd xmm4, xmm0\n"
            "movsd xmm0, 0(rbx)\n"
            "addsd xmm0, xmm4\n"
            "movsd 16(rbx), xmm5\n"
            "mulsd xmm5, xmm4\n"
            "movq $1e300d, xmm6\n"
            "movsd xmm4, 32(rbx)\n"
            "mulsd xmm6, xmm4\n"
            "movsd xmm4, 48(rbx)\n"
            "subsd xmm4, xmm0\n")
        rbxs = (SCRATCH_BASE + 60, SCRATCH_BASE, SCRATCH_BASE + 50,
                SCRATCH_BASE + 40, 0, SCRATCH_BASE + 20, SCRATCH_BASE + 8)
        tcs = [_lane_testcase(k, rbx) for k, rbx in enumerate(rbxs)]
        states, signals = _assert_lanes_match(program, tcs)
        assert signals == [Signal.SIGSEGV, None, Signal.SIGSEGV,
                           Signal.SIGSEGV, Signal.SIGSEGV, Signal.SIGSEGV,
                           None]
        # Every lane faulting leaves the batch empty, mid-program.
        _, signals = _assert_lanes_match(program, [tcs[0], tcs[4]])
        assert signals == [Signal.SIGSEGV, Signal.SIGSEGV]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_faulting_lanes(self, seed):
        rng = random.Random(seed)
        tcs = [_lane_testcase(100 * seed + k,
                              SCRATCH_BASE + rng.choice((0, 8, 24, 40, 56)))
               for k in range(8)]
        _assert_lanes_match(_hot_program(seed + 500, 24), tcs)
