"""Tests for the proposal distribution q(.) — STOKE's four transforms."""

import random

import pytest

from repro.kernels.libimf import LIBIMF_KERNELS
from repro.x86.assembler import assemble
from repro.x86.instruction import UNUSED
from repro.x86.opcodes import OPCODES
from repro.x86.operands import Imm, Kind, Mem, Xmm
from repro.x86.program import Program

from repro.core.transforms import (
    MOVE_KINDS,
    OperandPool,
    Transforms,
    default_opcode_pool,
)

TARGET = assemble("""
    movq $2.0d, xmm1
    mulsd xmm1, xmm0
    addsd 8(rdi), xmm0
""", total_slots=6)


class TestOperandPool:
    def test_collects_target_operands(self):
        pool = OperandPool(TARGET)
        assert Xmm(1) in pool.by_kind[Kind.XMM]
        assert Mem(8, 7, 8) in pool.by_kind[Kind.M64]
        imm_values = {imm.value for imm in pool.by_kind[Kind.IMM]}
        assert 0x4000000000000000 in imm_values  # 2.0's bit pattern

    def test_default_registers_present(self):
        pool = OperandPool(TARGET)
        assert len(pool.by_kind[Kind.XMM]) >= 8
        assert pool.by_kind[Kind.R64]

    def test_sample_respects_kinds(self):
        pool = OperandPool(TARGET)
        rng = random.Random(0)
        for _ in range(50):
            op = pool.sample(rng, frozenset({Kind.XMM}))
            assert isinstance(op, Xmm)

    def test_sample_empty_returns_none(self):
        pool = OperandPool(assemble("addsd xmm1, xmm0"))
        assert pool.sample(random.Random(0), frozenset({Kind.M128})) is None


class TestMoves:
    def setup_method(self):
        self.transforms = Transforms(TARGET)
        self.rng = random.Random(42)

    def test_opcode_move_keeps_operands(self):
        for _ in range(30):
            proposed = self.transforms.propose_opcode(self.rng, TARGET)
            if proposed is None:
                continue
            proposal, span = proposed
            changed = [(i, a, b) for i, (a, b) in
                       enumerate(zip(TARGET.slots, proposal.slots)) if a != b]
            assert len(changed) == 1
            index, old, new = changed[0]
            assert span == index
            assert old.operands == new.operands
            assert old.opcode != new.opcode

    def test_operand_move_keeps_opcode(self):
        for _ in range(30):
            proposed = self.transforms.propose_operand(self.rng, TARGET)
            if proposed is None:
                continue
            proposal, span = proposed
            changed = [(i, a, b) for i, (a, b) in
                       enumerate(zip(TARGET.slots, proposal.slots)) if a != b]
            assert len(changed) <= 1
            if changed:
                assert span == changed[0][0]
                assert changed[0][1].opcode == changed[0][2].opcode

    def test_swap_is_permutation(self):
        proposal, span = self.transforms.propose_swap(self.rng, TARGET)
        assert sorted(map(str, proposal.slots)) == \
            sorted(map(str, TARGET.slots))
        changed = [i for i, (a, b) in
                   enumerate(zip(TARGET.slots, proposal.slots)) if a != b]
        if changed:
            # The edit span is the *lowest* changed slot: everything
            # before it is byte-identical to the pre-swap program.
            assert span == min(changed)

    def test_instruction_move_can_insert_into_unused(self):
        empty = TARGET.with_slot(0, UNUSED)
        inserted = 0
        for _ in range(100):
            proposed = self.transforms.propose_instruction(self.rng, empty)
            if proposed is not None and proposed[0].loc > empty.loc:
                inserted += 1
        assert inserted > 0

    def test_instruction_move_can_delete(self):
        deleted = 0
        for _ in range(100):
            proposed = self.transforms.propose_instruction(self.rng, TARGET)
            if proposed is not None and proposed[0].loc < TARGET.loc:
                deleted += 1
        assert deleted > 0

    def test_all_proposals_are_valid_programs(self):
        program = TARGET
        for _ in range(300):
            proposal, kind, span = self.transforms.propose(self.rng, program)
            assert kind in MOVE_KINDS
            if proposal is None:
                assert span is None
                continue
            for instr in proposal.slots:
                assert OPCODES[instr.opcode].accepts(instr.operands)
            program = proposal  # walk

    def test_edit_span_covers_all_changes(self):
        """Every changed slot sits at or after the reported edit span, so
        the prefix ``slots[:span]`` is always reusable by the incremental
        evaluator."""
        program = TARGET
        for _ in range(300):
            proposal, _, span = self.transforms.propose(self.rng, program)
            if proposal is None:
                continue
            changed = [i for i, (a, b) in
                       enumerate(zip(program.slots, proposal.slots))
                       if a != b]
            if changed:
                assert span is not None
                assert span == min(changed)
                assert program.slots[:span] == proposal.slots[:span]
            program = proposal

    def test_random_instruction_valid(self):
        for _ in range(100):
            instr = self.transforms.random_instruction(self.rng)
            assert instr is not None
            assert OPCODES[instr.opcode].accepts(instr.operands)

    def test_all_move_kinds_proposed(self):
        seen = set()
        for _ in range(200):
            _, kind, _ = self.transforms.propose(self.rng, TARGET)
            seen.add(kind)
        assert seen == set(MOVE_KINDS)


class TestErgodicity:
    @staticmethod
    def _walk_locs(seed, steps=500):
        transforms = Transforms(TARGET)
        rng = random.Random(seed)
        locs = set()
        program = TARGET
        for _ in range(steps):
            proposal, _, _ = transforms.propose(rng, program)
            if proposal is not None:
                program = proposal
                locs.add(program.loc)
        return locs

    def test_walk_reaches_shorter_and_longer_programs(self):
        locs = self._walk_locs(7)
        assert min(locs) < TARGET.loc
        assert max(locs) >= TARGET.loc

    def test_walk_shrinks_and_grows_for_every_seed(self):
        """Regression for the growth-only walk: a fixed unused
        probability of 0.2 saturated 6-slot programs at max LOC, so the
        chain effectively never proposed net deletions.  The occupancy-
        scaled delete probability must reach both sides of the target's
        LOC regardless of the rng stream."""
        for seed in range(10):
            locs = self._walk_locs(seed)
            assert min(locs) < TARGET.loc, f"never shrank (seed {seed})"
            assert max(locs) > TARGET.loc, f"never grew (seed {seed})"


class TestDeleteProbability:
    def test_scales_with_occupancy(self):
        transforms = Transforms(TARGET)
        full = TARGET.compact()  # 3/3 slots occupied
        empty = Program([UNUSED] * 6)
        full_p = transforms.delete_probability(full)
        half_p = transforms.delete_probability(TARGET)  # 3/6 occupied
        empty_p = transforms.delete_probability(empty)
        assert full_p == pytest.approx(1.0 - transforms.unused_probability)
        assert half_p == pytest.approx(0.5)
        assert empty_p == pytest.approx(transforms.unused_probability)
        assert empty_p < half_p < full_p

    def test_balanced_at_half_occupancy(self):
        """Delete flux o*p equals insert flux (1-o)*(1-p) at o = 1/2."""
        transforms = Transforms(TARGET)
        p = transforms.delete_probability(TARGET)  # half occupied
        o = 0.5
        assert o * p == pytest.approx((1.0 - o) * (1.0 - p))


class TestMoveKindRestriction:
    def test_single_move_kind(self):
        transforms = Transforms(TARGET, move_kinds=["swap"])
        rng = random.Random(0)
        for _ in range(50):
            _, kind, _ = transforms.propose(rng, TARGET)
            assert kind == "swap"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Transforms(TARGET, move_kinds=["opcode", "delete"])

    def test_rejects_empty_kinds(self):
        with pytest.raises(ValueError):
            Transforms(TARGET, move_kinds=[])


class TestCrossProcessDeterminism:
    def test_sample_enumerates_kinds_in_sorted_order(self):
        """Operand sampling must not depend on frozenset iteration order
        (Kind hashes by member name, so raw set order varies with
        PYTHONHASHSEED across worker processes).  Pin the contract: the
        candidate list is the sorted-by-kind-value concatenation."""
        pool = OperandPool(TARGET)
        kinds = frozenset({Kind.XMM, Kind.IMM, Kind.M64})
        candidates = []
        for kind in sorted(kinds, key=lambda k: k.value):
            candidates.extend(pool.by_kind.get(kind, ()))
        rng_a, rng_b = random.Random(3), random.Random(3)
        for _ in range(50):
            assert pool.sample(rng_a, kinds) == rng_b.choice(candidates)

    def test_walk_is_reproducible(self):
        walk_a = TestErgodicity._walk_locs(11)
        walk_b = TestErgodicity._walk_locs(11)
        assert walk_a == walk_b


class TestOpcodePool:
    def test_excludes_nop(self):
        pool = default_opcode_pool(TARGET)
        assert "nop" not in pool
        assert "addsd" in pool
        assert "cmovae" in pool


class TestOpcodeMoveMemo:
    """``propose_opcode`` draws from a per-operand-tuple memo of the
    accepting opcodes; it must list what a fresh scan of the pool does,
    in pool order, so a seeded chain draws the same opcode."""

    @pytest.mark.parametrize("name", sorted(LIBIMF_KERNELS))
    def test_memo_equals_fresh_scan(self, name):
        program = LIBIMF_KERNELS[name]().program
        transforms = Transforms(program)
        operand_tuples = {instr.operands for instr in program.code}
        for operands in operand_tuples:
            fresh = [op for op in transforms.opcode_pool
                     if OPCODES[op].accepts(operands)]
            assert transforms.accepting(operands) == fresh, operands
            assert transforms.accepting(operands) is \
                transforms.accepting(operands)

    @pytest.mark.parametrize("name", sorted(LIBIMF_KERNELS))
    def test_draws_match_fresh_scan(self, name):
        program = LIBIMF_KERNELS[name]().program
        transforms = Transforms(program)
        for seed in range(40):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = transforms.propose_opcode(rng, program)
            index = ref_rng.choice([i for i, ins in enumerate(program.slots)
                                    if not ins.is_unused])
            instr = program.slots[index]
            compatible = [op for op in transforms.opcode_pool
                          if op != instr.opcode
                          and OPCODES[op].accepts(instr.operands)]
            if not compatible:
                assert got is None
                continue
            opcode = ref_rng.choice(compatible)
            assert got[1] == index
            assert got[0].slots[index].opcode == opcode
            assert got[0].slots[index].operands == instr.operands
