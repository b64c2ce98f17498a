"""Bound steps must be the emulator semantics, bit for bit.

The incremental evaluator interprets proposal suffixes through
``stepper.step_of`` closures; any drift between a specialized closure
and its opcode's generic ``exec_fn`` would silently corrupt search
results.  These tests pin every specialization to the generic
interpreter differentially, on random programs over the full opcode
registry and on the libimf kernels.
"""

from __future__ import annotations

import random

import pytest

from repro.kernels.libimf import LIBIMF_KERNELS
from repro.x86.assembler import assemble
from repro.x86.signals import SignalError
from repro.x86.stepper import _STEP_CACHE, bound_steps, step_of

from tests.conftest import base_testcase, random_program


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
        # The cache is keyed on instruction *content*, so an equal
        # instruction bound earlier may supply the cached operands
        # tuple — equality, not identity, is the contract.
        for text in ("mulsd 8(rbx), xmm0", "movsd (rbx), xmm1",
                     "movsd xmm1, (rbx)", "cvtsd2ss xmm0, xmm1"):
            instr = assemble(text).slots[0]
            fn, ops = step_of(instr)
            assert fn is instr.spec.exec_fn, text
            assert ops == instr.operands

    def test_step_cache_reuses_bindings(self):
        instr = assemble("mulsd xmm1, xmm0").slots[0]
        assert step_of(instr) is step_of(instr)
        assert instr in _STEP_CACHE
