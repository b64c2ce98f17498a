"""Tests for liveness analysis, dead-code elimination, and JIT internals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.x86.assembler import assemble
from repro.x86.emulator import Emulator
from repro.x86.jit import (CompiledProgram, compile_program, float_literal,
                           generate_live_out_source, generate_source)
from repro.x86.liveness import dead_code_eliminate, uses_and_defs
from repro.x86.locations import make_reader, parse_loc
from repro.x86.program import Program
from repro.x86.signals import Signal
from repro.x86.testcase import TestCase

from tests.conftest import SCRATCH_BASE, base_testcase, random_program


class TestUsesAndDefs:
    def test_simple_binop(self):
        instr = assemble("addsd xmm1, xmm0").slots[0]
        uses, defs = uses_and_defs(instr)
        assert uses == {"xmm0", "xmm1"}  # partial dst counts as use
        assert defs == {"xmm0"}

    def test_memory_operand_uses_base(self):
        instr = assemble("mulsd 8(rdi), xmm0").slots[0]
        uses, defs = uses_and_defs(instr)
        assert "rdi" in uses
        assert "mem" in uses

    def test_store_defines_mem(self):
        instr = assemble("movsd xmm0, (rdi)").slots[0]
        _, defs = uses_and_defs(instr)
        assert "mem" in defs

    def test_flags(self):
        cmp_instr = assemble("cmp rax, rcx").slots[0]
        cmov = assemble("cmove rax, rcx").slots[0]
        assert "flags" in uses_and_defs(cmp_instr)[1]
        assert "flags" in uses_and_defs(cmov)[0]

    def test_full_width_write_is_not_use(self):
        instr = assemble("movapd xmm1, xmm0").slots[0]
        uses, _ = uses_and_defs(instr)
        assert "xmm0" not in uses


class TestDeadCodeElimination:
    def test_removes_dead_instruction(self):
        program = assemble("""
            movq $1.0d, xmm5
            addsd xmm1, xmm0
        """)
        cleaned = dead_code_eliminate(program, {"xmm0"})
        assert cleaned.loc == 1
        assert cleaned.code[0].opcode == "addsd"

    def test_keeps_chains(self):
        program = assemble("""
            movq $2.0d, xmm1
            mulsd xmm1, xmm0
        """)
        cleaned = dead_code_eliminate(program, {"xmm0"})
        assert cleaned.loc == 2

    def test_preserves_slot_positions(self):
        program = assemble("""
            movq $1.0d, xmm5
            addsd xmm1, xmm0
        """)
        cleaned = dead_code_eliminate(program, {"xmm0"})
        assert len(cleaned) == len(program)
        assert cleaned.slots[0].is_unused

    def test_semantics_preserved_on_random_programs(self):
        emulator = Emulator()
        from repro.x86.locations import parse_loc

        live = [parse_loc("xmm0"), parse_loc("rax")]
        for seed in range(40):
            program = random_program(seed, 8)
            cleaned = dead_code_eliminate(program, {"xmm0", "rax"})
            tc = base_testcase(seed)
            s1, s2 = tc.build_state(), tc.build_state()
            o1 = emulator.run(program, s1)
            o2 = emulator.run(cleaned, s2)
            if o1.signal is not None:
                continue  # DCE may remove the faulting instruction
            assert o2.signal is None
            for loc in live:
                assert loc.read(s1) == loc.read(s2), program.to_text()


class TestJitInternals:
    def test_float_literal_roundtrip(self):
        for value in (1.5, -0.0, 5e-324, 1.7976931348623157e308):
            assert eval(float_literal(value)) == value or value == 0.0
        assert float_literal(float("nan")) is None
        assert float_literal(float("inf")) is None

    def test_source_is_deterministic(self):
        program = assemble("addsd xmm1, xmm0\nmulsd xmm2, xmm0")
        assert generate_source(program) == generate_source(program)

    def test_comments_flag(self):
        program = assemble("addsd xmm1, xmm0")
        assert "#" not in generate_source(program)
        assert "# addsd" in generate_source(program, comments=True)

    def test_compile_cache_returns_same_object(self):
        program = assemble("addsd xmm1, xmm0")
        assert compile_program(program) is compile_program(program)

    def test_empty_program(self):
        program = Program([])
        state = TestCase({}).build_state()
        assert compile_program(program).run(state).ok

    def test_only_dirty_registers_written_back(self):
        # A program that reads xmm1 but writes only xmm0 must not store
        # into xh[1]/xl[1] (epilogue minimality).
        source = generate_source(assemble("vaddsd xmm1, xmm2, xmm0"))
        assert "xl[0] =" in source
        assert "xl[1] =" not in source

    def test_float_domain_chaining(self):
        # Chained double arithmetic should compile to native operators
        # with no intermediate bit conversions.
        source = generate_source(assemble("""
            movq $2.0d, xmm1
            mulsd xmm1, xmm0
            addsd xmm1, xmm0
            subsd xmm1, xmm0
        """))
        # one load conversion for xmm0, one canonicalizing
        # materialization per written register (both conversions are
        # emitted as inline struct pack/unpack expressions)
        assert source.count("unpack_d(pack_q(") == 1
        assert source.count("unpack_q(pack_d(") == 2  # xmm0/xmm1 write-back

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_generated_source_compiles(self, seed):
        program = random_program(seed, 10)
        CompiledProgram(program)  # must not raise


class TestBatchDispatch:
    """The batched entry point, ``CompiledProgram.run_live_outs``."""

    LIVE_OUTS = (parse_loc("xmm0"), parse_loc("xmm3"), parse_loc("rax"))

    def test_batch_source_is_deterministic(self):
        program = assemble("addsd xmm1, xmm0\nmulsd xmm2, xmm0")
        assert generate_live_out_source(program, self.LIVE_OUTS) == \
            generate_live_out_source(program, self.LIVE_OUTS)

    def test_empty_program_batch(self):
        compiled = CompiledProgram(Program([]))
        states = [TestCase({"xmm3": 5}).build_state() for _ in range(3)]
        assert compiled.run_live_outs(states, self.LIVE_OUTS) == \
            [((0, 5, 0), None)] * 3

    def test_first_batch_matches_per_state_runs(self):
        # A fresh program's first batch returns what per-state run()
        # plus the readers return, leaves every register file as it was
        # and stores as run() does; the state in the middle faults on
        # the load through rsi, after a store.
        program = random_program(77, 10).padded(13)
        for slot, line in ((10, "movsd xmm0, 8(rbx)"),
                           (11, "movsd (rsi), xmm3"),
                           (12, "addsd xmm3, xmm0")):
            program = program.with_slot(slot, assemble(line).slots[0])
        tests = [base_testcase(i).replace("rsi", SCRATCH_BASE)
                 for i in range(5)]
        tests[2] = tests[2].replace("rsi", 0xDEAD0000)
        compiled = CompiledProgram(program)
        batch = [tc.build_state() for tc in tests]
        results = compiled.run_live_outs(batch, self.LIVE_OUTS)
        readers = [make_reader(loc) for loc in self.LIVE_OUTS]
        single = [tc.build_state() for tc in tests]
        want = []
        for state in single:
            signal = compiled.run(state).signal
            want.append((None, signal) if signal is not None else
                        (tuple(read(state) for read in readers), None))
        assert results == want
        assert results[2] == (None, Signal.SIGSEGV)
        assert [signal for _, signal in results].count(None) == 4
        for test, got, run_state in zip(tests, batch, single):
            fresh = test.build_state()
            assert got.gp == fresh.gp
            assert got.xmm_lo == fresh.xmm_lo
            assert got.xmm_hi == fresh.xmm_hi
            assert [img for _seg, img in got.mem.snapshot_writable()] == \
                [img for _seg, img in run_state.mem.snapshot_writable()]


class TestCompileCache:
    def test_bounded_with_lru_eviction(self, monkeypatch):
        from repro.x86 import jit

        monkeypatch.setattr(jit, "_COMPILE_CACHE_MAX", 4)
        jit.clear_compile_cache()
        programs = [Program([assemble(f"mov ${i}, rax").slots[0]])
                    for i in range(10)]
        for program in programs:
            jit.compile_program(program)
        stats = jit.compile_cache_stats()
        assert stats["size"] <= 4
        assert stats["misses"] == 10
        assert stats["evictions"] == 10 - stats["size"]
        # the cold end was evicted, the hot end survives
        assert programs[0] not in jit._COMPILE_CACHE
        assert programs[-1] in jit._COMPILE_CACHE

    def test_hit_refreshes_recency(self, monkeypatch):
        from repro.x86 import jit

        monkeypatch.setattr(jit, "_COMPILE_CACHE_MAX", 2)
        jit.clear_compile_cache()
        a = assemble("mov $1, rax")
        b = assemble("mov $2, rax")
        c = assemble("mov $3, rax")
        jit.compile_program(a)
        jit.compile_program(b)
        jit.compile_program(a)  # touch a: now b is the cold end
        jit.compile_program(c)  # evicts b, not a
        assert a in jit._COMPILE_CACHE
        assert b not in jit._COMPILE_CACHE
        stats = jit.compile_cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 3
        assert stats["evictions"] == 1
