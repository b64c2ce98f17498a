"""Differential tests of the JIT's live-out entry point.

``CompiledProgram.run_live_outs`` returns each state's live-out bits
instead of writing registers back.  On every program and state it must
return exactly what ``run`` followed by ``make_reader`` returns, raise
the same signal, leave ``gp``, ``xmm_lo``, ``xmm_hi`` and the flags as
they were, and store to memory as ``run`` does.
"""

import random

import pytest

from repro.kernels.aek import vector as V
from repro.kernels.libimf import LIBIMF_KERNELS
from repro.x86.assembler import assemble
from repro.x86.jit import CompiledProgram, generate_live_out_source
from repro.x86.locations import make_reader, parse_loc
from repro.x86.signals import Signal

from tests.conftest import base_testcase, random_program

# Every live-out kind: low and high double halves, the four f32 lanes,
# a 64-bit and a 32-bit GP register, and a memory location.
EVERY_KIND = tuple(parse_loc(text) for text in (
    "xmm0:d", "xmm1:hd", "xmm2:s0", "xmm2:s1", "xmm3:s2", "xmm3:s3",
    "xmm5", "rax", "eax", "rdx", "[scratch+8]:f64", "[scratch+20]:f32"))

# NaN payloads (quiet, signalling, negative), an infinity, a denormal
# and a pair of f32 NaNs, for the inputs of the NaN-payload states.
NAN_PATTERNS = (0x7FF8000000000123, 0x7FF0000000000001, 0xFFF8000000000001,
                0x7FF0000000000000, 0x0000000000000001, 0x7FC000017F800001)


def reference(compiled, state, live_outs):
    """(values, signal) of ``run`` plus the readers, and the state's
    memory pages after it."""
    outcome = compiled.run(state)
    pages = [bytes(seg.data) for seg in state.mem.segments]
    if outcome.signal is not None:
        return (None, outcome.signal), pages
    return (tuple(make_reader(loc)(state) for loc in live_outs), None), pages


def assert_matches_run(program, tests, live_outs=EVERY_KIND):
    """One batched ``run_live_outs`` call over ``tests`` against ``run``
    on a fresh state per test."""
    compiled = CompiledProgram(program)
    states = [test.build_state() for test in tests]
    before = [(list(s.gp), list(s.xmm_lo), list(s.xmm_hi), dict(s.flags))
              for s in states]
    got = compiled.run_live_outs(states, live_outs)
    assert len(got) == len(tests)
    for test, state, regs, result in zip(tests, states, before, got):
        want, pages = reference(compiled, test.build_state(), live_outs)
        assert result == want
        assert (state.gp, state.xmm_lo, state.xmm_hi, state.flags) == regs
        assert [bytes(seg.data) for seg in state.mem.segments] == pages
    return got


def nan_test(seed):
    """A scratch-memory test whose XMM inputs are NaN payloads and other
    special patterns."""
    rng = random.Random(seed)
    test = base_testcase(seed)
    for index in range(4):
        for half in ("", ":hd"):
            test = test.replace(f"xmm{index}{half}", rng.choice(NAN_PATTERNS))
    return test


class TestRandomPrograms:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_run_and_readers(self, seed):
        program = random_program(seed, 12)
        tests = [base_testcase(seed * 7 + k) for k in range(3)]
        assert_matches_run(program, tests + [nan_test(seed)])

    def test_signals_match_mid_batch(self):
        # The middle state faults after a store: its neighbours still
        # return their values, and the store it made stays in memory.
        program = assemble("movsd xmm0, 8(rbx)\nmovsd 4096(rax), xmm1\n"
                           "addsd xmm1, xmm0")
        bad = base_testcase(2).replace("rax", 0xDEAD0000)
        good = base_testcase(3).replace("rax", 0x4000)
        got = assert_matches_run(program, [good, bad, good])
        assert [signal for _, signal in got] == [None, Signal.SIGSEGV, None]

    def test_untouched_live_outs_read_the_state(self):
        # A live-out the program never names reads its input value.
        got = assert_matches_run(assemble("addsd xmm1, xmm0"),
                                 [base_testcase(1), nan_test(4)])
        assert all(signal is None for _, signal in got)


class TestKernels:
    @pytest.mark.parametrize("name", sorted(LIBIMF_KERNELS))
    def test_libimf(self, name):
        spec = LIBIMF_KERNELS[name]()
        tests = spec.testcases(random.Random(5), 20)
        live_outs = tuple(parse_loc(t) for t in ("xmm0", "xmm0:hd",
                                                 "xmm1:s1", "rax", "eax"))
        assert_matches_run(spec.program, tests, live_outs)
        nan_inputs = [test.replace("xmm0", bits) for test in tests[:1]
                      for bits in NAN_PATTERNS]
        assert_matches_run(spec.program, nan_inputs, live_outs)

    @pytest.mark.parametrize("name", sorted(V.AEK_KERNELS))
    def test_aek(self, name):
        spec = V.AEK_KERNELS[name]()
        live_outs = tuple(parse_loc(loc) if isinstance(loc, str) else loc
                          for loc in spec.live_outs)
        tests = spec.testcases(random.Random(6), 10)
        for program in (spec.program, V.AEK_REWRITES[name]()):
            assert_matches_run(program, tests, live_outs)


class TestEntryPoints:
    def test_keyed_by_live_out_tuple(self):
        # One CompiledProgram serves Runners whose live-outs differ.
        compiled = CompiledProgram(assemble("addsd xmm1, xmm0"))
        state = base_testcase(0).build_state()
        low, high = (parse_loc("xmm0"),), (parse_loc("xmm0:hd"),)
        first = compiled.run_live_outs([state], low)
        assert compiled.run_live_outs([state], high) != first
        assert compiled.run_live_outs([state], low) == first
        assert compiled.run_live_outs([], low) == []

    def test_source_has_no_write_back(self):
        source = generate_live_out_source(
            assemble("mulsd xmm1, xmm0\ncvttsd2si xmm0, rax"),
            (parse_loc("xmm0"), parse_loc("rax")))
        assert "xl[0] =" not in source and "gp[0] =" not in source
        assert "mem" not in source
