"""Tests for block evaluation in the validator.

``err_block`` over the proposal-state pool is the validator's only
Equation 13 evaluator: it must match an independent per-test reference
on every backend, whatever segments and live-ins its tests carry, and
no test case may build a machine state of its own.  Strategies whose
proposals are drawn independently of the chain state
(``uniform_proposals``) run in blocks of ``UNIFORM_BLOCK``, which must
not change any result; chain strategies run one proposal per block.
"""

import random
import struct

import pytest

from repro.fp.ieee754 import double_to_bits
from repro.x86.assembler import assemble
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


def drawn_proposals(count, seed=0):
    """A realistic chain of proposals from the validation proposer."""
    proposer = TestCaseProposer(RANGES)
    rng = random.Random(seed)
    current = proposer.initial(rng, base_tc())
    out = []
    for _ in range(count):
        current = proposer.propose(rng, current)
        out.append(current)
    return out


def reference_errs(backend, target, rewrite, tests):
    """Equation 13 per test on each test case's own pooled state, through
    a Runner of its own: the ground truth the validator's pool must
    reproduce."""
    runner = Runner(["xmm0"], backend=backend)
    prepared_target = runner.prepare(assemble(target))
    prepared_rewrite = runner.prepare(assemble(rewrite))
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
