"""Tests for Program, Instruction, operands, and the UNUSED token."""

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernels import LIBIMF_KERNELS
from repro.x86.assembler import assemble
from repro.x86.instruction import UNUSED, Instruction
from repro.x86.opcodes import MEM_EXTRA_LATENCY, OPCODES
from repro.x86.operands import Imm, Kind, Mem, Reg32, Reg64, Xmm
from repro.x86.program import Program

from tests.conftest import random_program


class TestOperands:
    def test_kinds(self):
        assert Reg64(0).kind is Kind.R64
        assert Reg32(0).kind is Kind.R32
        assert Xmm(5).kind is Kind.XMM
        assert Imm(3).kind is Kind.IMM
        assert Mem(8, 0).kind is Kind.M64
        assert Mem(4, 0).kind is Kind.M32
        assert Mem(16, 0).kind is Kind.M128

    def test_formatting(self):
        assert str(Reg64(7)) == "rdi"
        assert str(Xmm(12)) == "xmm12"
        assert str(Imm(5)) == "$5"
        assert str(Mem(8, 7, -16)) == "-16(rdi)"
        assert str(Mem(8, 1, 8, index=0, scale=4)) == "8(rcx,rax,4)"

    def test_large_imm_prints_hex(self):
        assert str(Imm(0x3FF0000000000000)) == "$0x3ff0000000000000"

    def test_mem_validation(self):
        with pytest.raises(ValueError):
            Mem(5, 0)
        with pytest.raises(ValueError):
            Mem(8, 0, scale=3)


class TestInstruction:
    def test_validates_operands(self):
        with pytest.raises(ValueError):
            Instruction("addsd", (Reg64(0), Xmm(0)))

    def test_unknown_opcode(self):
        with pytest.raises(KeyError):
            Instruction("bogus", ())

    def test_latency_includes_memory_penalty(self):
        reg_form = Instruction("addsd", (Xmm(1), Xmm(0)))
        mem_form = Instruction("addsd", (Mem(8, 7), Xmm(0)))
        assert mem_form.latency == reg_form.latency + MEM_EXTRA_LATENCY

    def test_unused_token(self):
        assert UNUSED.is_unused
        assert UNUSED.latency == 0

    def test_two_memory_operands_rejected(self):
        spec = OPCODES["mov"]
        assert not spec.accepts((Mem(8, 0), Mem(8, 1)))


class TestProgram:
    def test_loc_ignores_unused(self):
        program = Program([UNUSED, Instruction("addsd", (Xmm(1), Xmm(0))),
                           UNUSED])
        assert program.loc == 1
        assert len(program) == 3

    def test_with_slot_is_functional(self):
        program = assemble("addsd xmm1, xmm0")
        modified = program.with_slot(0, UNUSED)
        assert program.loc == 1
        assert modified.loc == 0

    def test_swap(self):
        program = assemble("addsd xmm1, xmm0\nmulsd xmm2, xmm0")
        swapped = program.with_swap(0, 1)
        assert swapped.slots[0].opcode == "mulsd"
        assert swapped.with_swap(0, 1) == program  # involution

    def test_padding(self):
        program = assemble("addsd xmm1, xmm0", total_slots=5)
        assert len(program) == 5
        assert program.loc == 1
        with pytest.raises(ValueError):
            program.padded(2)

    def test_compact(self):
        program = assemble("addsd xmm1, xmm0", total_slots=5)
        assert len(program.compact()) == 1

    @pytest.mark.parametrize("name", sorted(LIBIMF_KERNELS))
    def test_edits_carry_the_latency(self, name):
        # Each edit derives its latency from its parent's, so a long
        # chain of them would drift from a fresh sum if one were off.
        pool = list(dict.fromkeys(
            ins for factory in LIBIMF_KERNELS.values()
            for ins in factory().program.slots)) + [UNUSED]
        target = LIBIMF_KERNELS[name]().program
        program = target.padded(len(target) + 4)
        rng = random.Random(name)
        for _ in range(400):
            i = rng.randrange(len(program))
            if rng.random() < 0.5:
                program = program.with_slot(i, rng.choice(pool))
            else:
                program = program.with_swap(i, rng.randrange(len(program)))
            assert program.latency == sum(ins.latency
                                          for ins in program.slots)
        assert pickle.loads(pickle.dumps(program)).latency == \
            program.latency

    def test_hash_and_equality(self):
        a = assemble("addsd xmm1, xmm0")
        b = assemble("addsd xmm1, xmm0")
        assert a == b
        assert hash(a) == hash(b)
        assert a != a.with_slot(0, UNUSED)

    def test_text_skips_unused_by_default(self):
        program = assemble("addsd xmm1, xmm0", total_slots=3)
        assert program.to_text().strip().count("\n") == 0
        assert "nop" in program.to_text(include_unused=True)

    def test_latency_sum(self):
        program = assemble("addsd xmm1, xmm0\nmulsd xmm2, xmm0")
        assert program.latency == sum(i.latency for i in program.code)

    @given(st.integers(0, 10**6), st.integers(1, 10))
    def test_random_programs_roundtrip_text(self, seed, length):
        program = random_program(seed, length)
        again = assemble(program.to_text(include_unused=True))
        assert again == program
