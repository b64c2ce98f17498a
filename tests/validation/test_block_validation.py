"""Tests for block evaluation in the validator.

``err_block`` over the proposal-state pool is the validator's only
Equation 13 evaluator: it must match an independent per-test reference
on every backend, whatever segments and live-ins its tests carry, and
no test case may build a machine state of its own.  Strategies whose
proposals are drawn independently of the chain state
(``uniform_proposals``) run in blocks of ``UNIFORM_BLOCK``, which must
not change any result; chain strategies run one proposal per block.
"""

import hashlib
import itertools
import random
import struct

import pytest

from repro.fp.ieee754 import double_to_bits
from repro.kernels.aek.vector import scale_kernel, scale_rewrite
from repro.x86.assembler import assemble
from repro.x86.memory import Memory
from repro.x86.program import Program
from repro.x86.state import MachineState
from repro.x86.testcase import TestCase

from repro.core.cost import location_ulp_distance
from repro.core.runner import Runner
from repro.validation import validator as validator_module
from repro.validation.proposals import TestCaseProposer
from repro.validation.strategies import make_validation_strategy
from repro.validation.validator import (SIGNAL_ERR, UNIFORM_BLOCK,
                                        ValidationConfig, Validator)

from tests.conftest import base_testcase

BACKENDS = ("jit", "emulator", "vector")
RANGES = {"xmm0": (-10.0, 10.0)}


def base_tc():
    return TestCase.from_values({"xmm0": 0.0})


def make_validator(backend="jit", target="addsd xmm0, xmm0",
                   rewrite="mulsd xmm0, xmm0", base=base_tc):
    return Validator(assemble(target), assemble(rewrite), ["xmm0"],
                     RANGES, base, backend=backend)


def drawn_proposals(count, seed=0, ranges=RANGES, base=None):
    """A realistic chain of proposals from the validation proposer."""
    proposer = TestCaseProposer(ranges)
    rng = random.Random(seed)
    current = proposer.initial(rng, base if base is not None else base_tc())
    out = []
    for _ in range(count):
        current = proposer.propose(rng, current)
        out.append(current)
    return out


def as_program(program):
    return program if isinstance(program, Program) else assemble(program)


def reference_errs(backend, target, rewrite, tests, live_outs=("xmm0",)):
    """Equation 13 per test on each test case's own pooled state, through
    a Runner of its own and :func:`location_ulp_distance`: the ground
    truth the validator's pool and its fused live-out read must
    reproduce."""
    runner = Runner(live_outs, backend=backend)
    prepared_target = runner.prepare(as_program(target))
    prepared_rewrite = runner.prepare(as_program(rewrite))
    errs = []
    for test in tests:
        t_out, t_sig = runner.run_values(prepared_target, test)
        r_out, r_sig = runner.run_values(prepared_rewrite, test)
        if t_sig is not None:
            errs.append(0.0 if r_sig == t_sig else SIGNAL_ERR)
        elif r_sig is not None:
            errs.append(SIGNAL_ERR)
        else:
            total = 0.0
            for loc, r_bits, t_bits in zip(runner.live_outs, r_out, t_out):
                total += location_ulp_distance(loc, r_bits, t_bits)
            errs.append(total)
    return errs


class TestErrBlock:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_block_matches_scalar_err(self, backend):
        validator = make_validator(backend=backend)
        proposals = drawn_proposals(50)
        expected = reference_errs(backend, "addsd xmm0, xmm0",
                                  "mulsd xmm0, xmm0", proposals)
        assert validator.err_block(proposals) == expected
        assert [validator.err(t) for t in proposals] == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pool_reuse_across_blocks(self, backend):
        # The proposal-state pool is reset in place between blocks; a
        # second block must not see residue from the first.
        validator = make_validator(backend=backend)
        first = drawn_proposals(20, seed=1)
        second = drawn_proposals(20, seed=2)
        validator.err_block(first)
        assert validator.err_block(second) == reference_errs(
            backend, "addsd xmm0, xmm0", "mulsd xmm0, xmm0", second)

    def test_empty_block(self):
        assert make_validator().err_block([]) == []

    def test_rewrite_signal_divergence(self):
        validator = make_validator(rewrite="movsd (rax), xmm0")
        proposals = drawn_proposals(8)
        assert validator.err_block(proposals) == [SIGNAL_ERR] * 8

    def test_matching_target_and_rewrite_signals(self):
        # Both programs fault identically: not a divergence (err 0).
        validator = make_validator(target="movsd (rax), xmm0",
                                   rewrite="movsd (rax), xmm0")
        proposals = drawn_proposals(8)
        assert validator.err_block(proposals) == [0.0] * 8

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_segments_rebuild_pool_slots(self, backend):
        # Test cases from different base test cases carry their own
        # segment objects; a pool slot holding another test's image must
        # be rebuilt, also when the bases alternate within one block.
        target, rewrite = "addsd 8(rbx), xmm0", "mulsd 8(rbx), xmm0"
        tc_a = base_testcase(0)
        tc_b = base_testcase(0)
        tc_c = base_testcase(0)  # a different memory image under rbx
        tc_c.segments[0].data[8:16] = struct.pack("<d", 2.5)
        validator = Validator(assemble(target), assemble(rewrite),
                              ["xmm0"], RANGES, lambda: tc_a,
                              backend=backend)

        def proposals(base):
            return [base.replace("xmm0", double_to_bits(float(v)))
                    for v in range(1, 7)]

        props_a, props_b, props_c = (proposals(tc_a), proposals(tc_b),
                                     proposals(tc_c))
        blocks = [props_a, props_b, props_c]
        for first, second in ((props_a, props_b), (props_b, props_a),
                              (props_a, props_c), (props_c, props_a)):
            blocks.append([t for pair in zip(first, second) for t in pair])
        for block in blocks:
            assert validator.err_block(block) == reference_errs(
                backend, target, rewrite, block)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_live_ins_of_a_previous_test_do_not_leak(self, backend):
        # Same segments, different live-in locations: a slot whose last
        # test set xmm1 must not hand that value to a test without it.
        target, rewrite = "addsd xmm1, xmm0", "mulsd xmm1, xmm0"
        validator = make_validator(backend=backend, target=target,
                                   rewrite=rewrite)
        with_xmm1 = TestCase.from_values({"xmm0": 1.5, "xmm1": 4.0})
        without = TestCase.from_values({"xmm0": 1.5})
        for block in ([with_xmm1], [without], [with_xmm1, without],
                      [without, with_xmm1]):
            assert validator.err_block(block) == reference_errs(
                backend, target, rewrite, block)

    def test_register_only_pair_changes_only_live_in_slots(self,
                                                          monkeypatch):
        # On jit the runs return their live-outs and write no register
        # back, so the shared pool states of a register-only pair are
        # never reset: across a block each changes only in the slots its
        # test's live-ins name, and ends as that test's own state.
        target = "movsd xmm0, xmm2\nmulsd xmm1, xmm2\naddsd xmm2, xmm0\n" \
                 "cvttsd2si xmm0, rax\nucomisd xmm1, xmm0"
        rewrite = "mulsd xmm1, xmm0\ncvtsd2si xmm0, rcx\nmovsd xmm0, xmm3"
        ranges = {"xmm0": (-10.0, 10.0), "xmm1": (1.0, 2.0)}
        base = base_testcase(0)
        validator = Validator(assemble(target), assemble(rewrite),
                              ["xmm0"], ranges, lambda: base, backend="jit")
        validator.err_block(drawn_proposals(8, seed=1, ranges=ranges,
                                            base=base))
        resets = []
        monkeypatch.setattr(MachineState, "restore",
                            lambda *args: resets.append(args))
        monkeypatch.setattr(Memory, "restore_writable",
                            lambda *args: resets.append(args))
        block = drawn_proposals(8, seed=2, ranges=ranges, base=base)
        slots = [slot[2] for slot in validator._pool._slots]
        before = [state.snapshot() for state in slots]
        errs = validator.err_block(block)
        assert resets == []
        assert errs == reference_errs("jit", target, rewrite, block)
        for test, state, old in zip(block, slots, before):
            live_ins = {(loc.reg, loc.lane) for loc in test.inputs}
            new = state.snapshot()
            assert new[3] == old[3]  # flags
            assert [bytes(seg.data) for seg in state.mem.segments
                    if seg.writable] == [image for _, image in old[4]]
            for name, index in itertools.product(("xmm0", "xmm1", "xmm2",
                                                  "xmm3"), range(2)):
                file = 1 + index  # xmm_lo, xmm_hi
                reg = int(name[3:])
                if (name, index) not in live_ins:
                    assert new[file][reg] == old[file][reg]
            fresh = test.build_state()
            assert (state.gp, state.xmm_lo, state.xmm_hi) == \
                (fresh.gp, fresh.xmm_lo, fresh.xmm_hi)

    @pytest.mark.parametrize("backend", ("jit", "emulator"))
    def test_no_test_case_builds_a_machine_state(self, backend):
        # Proposals are evaluated on the pool's states only: neither a
        # scalar err() call nor a chain leaves a template or pooled
        # state on its test cases.
        validator = make_validator(backend=backend)
        fresh = drawn_proposals(1)[0]
        validator.err(fresh)
        result = validator.validate(
            ValidationConfig(max_proposals=300, min_samples=300, seed=1),
            make_validation_strategy("mcmc"))
        for test in (fresh, result.argmax):
            assert test._template is None
            assert test._pooled is None


class TestBlockChainEquivalence:
    CONFIG = ValidationConfig(max_proposals=1200, min_samples=400,
                              check_interval=200, seed=5, keep_chain=True)

    def test_rand_block_run_is_bit_identical_to_scalar(self, monkeypatch):
        # ValidationRandom draws proposals independently of the chain
        # state and its accept consumes no randomness, so blocks of
        # UNIFORM_BLOCK and blocks of one see the very same rng stream:
        # every result field must match exactly.
        strategy = make_validation_strategy("rand")
        block = make_validator().validate(self.CONFIG, strategy)
        monkeypatch.setattr(validator_module, "UNIFORM_BLOCK", 1)
        scalar = make_validator().validate(self.CONFIG, strategy)
        assert block.max_err == scalar.max_err
        assert block.argmax.inputs == scalar.argmax.inputs
        assert block.samples == scalar.samples
        assert block.converged == scalar.converged
        assert block.passed == scalar.passed
        assert block.trace == scalar.trace
        assert block.z_scores == scalar.z_scores
        assert block.chain == scalar.chain
        # One proposal per block wastes nothing; a full block wastes the
        # tail drawn past the Geweke break, which lands mid-block here.
        assert scalar.evaluations == scalar.samples
        assert scalar.wasted == 0
        assert block.evaluations == block.samples + block.wasted
        assert 0 < block.wasted < UNIFORM_BLOCK

    def test_default_speculates_only_for_uniform_strategies(self):
        # Chain strategies evaluate one proposal per block: every
        # evaluated proposal is a sample.  rand fills whole blocks.
        mcmc = make_validator().validate(
            self.CONFIG, make_validation_strategy("mcmc"))
        assert mcmc.evaluations == mcmc.samples
        assert mcmc.wasted == 0
        rand = make_validator().validate(
            self.CONFIG, make_validation_strategy("rand"))
        assert rand.evaluations % UNIFORM_BLOCK == 0
        assert rand.evaluations >= rand.samples


def assert_matches_reference(backend, target, rewrite, live_outs, ranges,
                             base, proposals):
    """A block, then the same tests as blocks of one, against
    :func:`reference_errs`."""
    validator = Validator(as_program(target), as_program(rewrite),
                          list(live_outs), ranges, lambda: base,
                          backend=backend)
    expected = reference_errs(backend, target, rewrite, proposals,
                              live_outs=live_outs)
    assert validator.err_block(proposals) == expected
    assert [validator.err(t) for t in proposals] == expected
    return expected


# Live-out patterns: NaN payloads (quiet, signalling, negative), both
# zeros, both infinities, denormals at both ends and a normal number.
F64_PATTERNS = (
    0x0000000000000000, 0x8000000000000000,  # +0, -0
    0x7FF0000000000000, 0xFFF0000000000000,  # +inf, -inf
    0x7FF8000000000000, 0x7FF8000000000123,  # quiet NaN, with payload
    0x7FF0000000000001, 0xFFF8000000000001,  # signalling, negative NaN
    0x0000000000000001, 0x000FFFFFFFFFFFFF,  # min and max denormal
    0x8000000000000001, 0x3FF0000000000000,  # -min denormal, 1.0
)
# Two f32 patterns per quadword, high lane first: NaN payload / -0,
# -inf / +inf, -max denormal / min denormal, +0 / signalling NaN.
F32_PAIRS = (0x7FC0000180000000, 0xFF8000007F800000,
             0x807FFFFF00000001, 0x000000007F800001)


class TestFusedEquation13:
    """``err_block`` reads both live-out tuples and sums Equation 13 in
    one loop over :func:`~repro.core.cost.ulp_widths`; it must equal the
    per-location :func:`location_ulp_distance` reference for every
    location kind and every special pattern."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_f32_lane_live_outs(self, backend):
        ranges = {"xmm0:s0": (-4.0, 4.0), "xmm0:s1": (-4.0, 4.0)}
        base = TestCase.from_values({"xmm0:s0": 1.0, "xmm0:s1": -1.0})
        proposals = drawn_proposals(40, ranges=ranges, base=base)
        errs = assert_matches_reference(
            backend, "mulps xmm0, xmm0", "addps xmm0, xmm0",
            ("xmm0:s0", "xmm0:s1"), ranges, base, proposals)
        assert len(set(errs)) > 10

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_aek_kernel_with_three_f32_live_outs(self, backend):
        # The scale kernel's target spills xmm0 to the stack (a memory
        # write set); its rewrite is register-only.
        spec = scale_kernel()
        base = spec.base_testcase()
        proposals = drawn_proposals(30, seed=3, ranges=dict(spec.ranges),
                                    base=base)
        assert len(spec.live_outs) == 3
        assert_matches_reference(backend, spec.program, scale_rewrite(),
                                 spec.live_outs, dict(spec.ranges), base,
                                 proposals)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("live_out, target, rewrite", [
        ("rax", "cvttsd2si xmm0, rax", "cvtsd2si xmm0, rax"),
        ("rax", "cvttsd2si xmm0, rax", "cvtsd2si xmm0, rax\nneg rax"),
        ("eax", "cvttsd2si xmm0, eax", "cvtsd2si xmm0, rax\nneg rax"),
    ])
    def test_integer_live_outs(self, backend, live_out, target, rewrite):
        proposals = drawn_proposals(40, seed=4)
        errs = assert_matches_reference(backend, target, rewrite,
                                        (live_out,), RANGES, base_tc(),
                                        proposals)
        assert max(errs) > 1.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_both_programs_store_to_memory(self, backend):
        # Each program reads 8(rbx) and stores its result there: unless
        # both states of a pair restore memory between tests, a test
        # reads the previous test's result.
        base = base_testcase(0)
        base.segments[0].data[8:16] = struct.pack("<d", 2.5)
        target = "addsd 8(rbx), xmm0\nmovsd xmm0, 8(rbx)"
        rewrite = "mulsd 8(rbx), xmm0\nmovsd xmm0, 8(rbx)"
        proposals = drawn_proposals(30, seed=5, base=base)
        assert_matches_reference(backend, target, rewrite,
                                 ("xmm0", "[scratch+8]:f64"), RANGES, base,
                                 proposals)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_special_patterns(self, backend):
        # Constant programs put each pattern in xmm0, read as a double
        # and as two singles.
        live_outs = ("xmm0", "xmm0:s0", "xmm0:s1")
        proposals = drawn_proposals(2, seed=6)
        patterns = F64_PATTERNS + F32_PAIRS
        for want, got in itertools.product(patterns, repeat=2):
            assert_matches_reference(
                backend, f"movq ${want:#x}, xmm0", f"movq ${got:#x}, xmm0",
                live_outs, RANGES, base_tc(), proposals)


# The walk the pins below record: two ranged live-ins (f64 and f32, one
# of them started near its top edge), an unranged pointer, a wide step
# so that components clamp, and two accepts in every three draws.
PIN_RANGES = {"xmm0": (-1.0, 1.0), "xmm1:s0": (0.0, 4.0)}
PROPOSAL_PINS = {
    "propose":
        "819227a7771697821da795f75be6d367b64ce1fbb8e971c0a3bd3d2b8c523d79",
    "propose_uniform":
        "84efb450f09166a7c59fdcc157f3246494914eb36eefc6c1e3cd2814597f12b6",
}


def pinned_walk(draw):
    proposer = TestCaseProposer(PIN_RANGES, sigma_fraction=0.4)
    rng = random.Random(2024)
    base = TestCase.from_values({"rbx": 0x4000, "xmm1:s0": 3.5,
                                 "xmm0": 0.5})
    current = proposer.initial(rng, base)
    record = [[(str(loc), bits) for loc, bits in current.inputs.items()]]
    stays = partial = 0
    for index in range(64):
        proposal = getattr(proposer, draw)(rng, current)
        stay = proposal is current
        stays += stay
        moved = sum(a != b for a, b in zip(proposal.inputs.values(),
                                           current.inputs.values()))
        partial += not stay and moved < len(PIN_RANGES)
        record.append((stay, [(str(loc), bits)
                              for loc, bits in proposal.inputs.items()]))
        if index % 3:
            current = proposal
    return hashlib.sha256(repr(record).encode()).hexdigest(), stays, partial


class TestProposalPins:
    """The first 64 draws of each proposal kind at a fixed seed, as the
    ``replace``-chain proposer drew them."""

    def test_propose(self):
        digest, stays, partial = pinned_walk("propose")
        assert digest == PROPOSAL_PINS["propose"]
        # Among the pinned draws: some return ``current`` itself (every
        # component clamped) and some clamp one component only.
        assert stays > 0
        assert partial > 0

    def test_propose_uniform(self):
        digest, stays, partial = pinned_walk("propose_uniform")
        assert digest == PROPOSAL_PINS["propose_uniform"]
        assert stays == partial == 0


class TestIntegerWalks:
    """Integer live-ins walk on the reading of their pattern nearer the
    range: signed on a range around zero, unsigned on one above 2^31, so
    either walk crosses its middle both ways."""

    @staticmethod
    def walk(name, lo, hi, start, read, sigma_fraction):
        proposer = TestCaseProposer({name: (lo, hi)}, sigma_fraction)
        rng = random.Random(11)
        current = TestCase.from_values({name: start})
        loc = next(iter(current.inputs))
        values = []
        for _ in range(200):
            current = proposer.propose(rng, current)
            values.append(read(current.inputs[loc], loc.width))
        assert all(lo <= v <= hi for v in values)
        assert len(set(values)) > 10
        return values

    @staticmethod
    def crossings(values, pivot):
        sides = [v > pivot for v in values if v != pivot]
        ups = sum(1 for a, b in zip(sides, sides[1:]) if not a and b)
        downs = sum(1 for a, b in zip(sides, sides[1:]) if a and not b)
        return ups, downs

    @pytest.mark.parametrize("name, start", [("eax", -7), ("rax", -1)])
    def test_walk_crosses_zero_both_ways(self, name, start):
        values = self.walk(
            name, -10, 10, start,
            lambda bits, width: bits - (1 << width) if bits >> (width - 1)
            else bits, sigma_fraction=0.2)
        ups, downs = self.crossings(values, 0)
        assert ups > 0 and downs > 0

    def test_unsigned_walk_crosses_2_31_both_ways(self):
        hi = (1 << 32) - 1
        # At the default sigma (5% of the range), no step reaches back
        # into the range from the -2^31 a signed reading would give.
        values = self.walk("eax", 0, hi, hi // 2, lambda bits, width: bits,
                           sigma_fraction=0.05)
        ups, downs = self.crossings(values, 1 << 31)
        assert ups > 0 and downs > 0
