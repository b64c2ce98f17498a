"""Tests for speculative block evaluation in the validator.

``err_block`` must be bit-identical to per-proposal ``err``; for
strategies whose proposals are drawn independently of the chain state
(``uniform_proposals``) whole validation runs must be bit-identical
between scalar and block mode, because the acceptance step consumes no
randomness and an accept invalidates nothing.
"""

import random
from dataclasses import replace

import pytest

from repro.fp.ieee754 import double_to_bits
from repro.x86.assembler import assemble
from repro.x86.testcase import TestCase

from repro.validation.proposals import TestCaseProposer
from repro.validation.strategies import make_validation_strategy
from repro.validation.validator import (SIGNAL_ERR, ValidationConfig,
                                        Validator)

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


class TestErrBlock:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_block_matches_scalar_err(self, backend):
        validator = make_validator(backend=backend)
        proposals = drawn_proposals(50)
        block = validator.err_block(proposals)
        assert block == [validator.err(t) for t in proposals]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pool_reuse_across_blocks(self, backend):
        # The proposal-state pool is reset in place between blocks; a
        # second block must not see residue from the first.
        validator = make_validator(backend=backend)
        first = drawn_proposals(20, seed=1)
        second = drawn_proposals(20, seed=2)
        validator.err_block(first)
        assert validator.err_block(second) == \
            [validator.err(t) for t in second]

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

    def test_foreign_segments_take_generic_path(self):
        # Proposals derived from a different base test case carry their
        # own segment objects; the pristine pool images don't apply and
        # the block must route through the tests' own pooled states.
        tc_a = base_testcase(0)
        validator = Validator(assemble("addsd 8(rbx), xmm0"),
                              assemble("addsd 8(rbx), xmm0"), ["xmm0"],
                              RANGES, lambda: tc_a)
        props_a = [tc_a.replace("xmm0", double_to_bits(float(v)))
                   for v in range(1, 7)]
        assert validator.err_block(props_a) == \
            [validator.err(t) for t in props_a]
        tc_b = base_testcase(0)  # fresh segments => generic path
        props_b = [tc_b.replace("xmm0", double_to_bits(float(v)))
                   for v in range(1, 7)]
        assert validator.err_block(props_b) == \
            [validator.err(t) for t in props_b]


class TestBlockChainEquivalence:
    CONFIG = ValidationConfig(max_proposals=1200, min_samples=400,
                              check_interval=200, seed=5, max_block=1)

    def test_rand_block_run_is_bit_identical_to_scalar(self):
        # ValidationRandom draws proposals independently of the chain
        # state and its accept consumes no randomness, so block and
        # scalar mode see the very same rng stream: every result field
        # must match exactly.
        validator = make_validator()
        scalar = validator.validate(self.CONFIG,
                                    make_validation_strategy("rand"))
        block = validator.validate(replace(self.CONFIG, max_block=8),
                                   make_validation_strategy("rand"))
        assert block.max_err == scalar.max_err
        assert block.samples == scalar.samples
        assert block.converged == scalar.converged
        assert block.trace == scalar.trace
        assert block.z_scores == scalar.z_scores
        assert block.argmax.value_of("xmm0") == \
            scalar.argmax.value_of("xmm0")
        # Scalar mode never speculates; block mode can only waste the
        # tail of its final block (the Geweke break), never a whole one.
        assert scalar.evaluations == scalar.samples
        assert scalar.wasted == 0
        assert block.wasted == block.evaluations - block.samples
        assert block.wasted < 8

    def test_mcmc_block_mode_is_deterministic(self):
        config = replace(self.CONFIG, max_block=16)
        strategy = make_validation_strategy("mcmc")
        first = make_validator().validate(config, strategy)
        second = make_validator().validate(config, strategy)
        assert first.max_err == second.max_err
        assert first.samples == second.samples
        assert first.evaluations == second.evaluations

    def test_mcmc_block_accounting(self):
        result = make_validator().validate(
            replace(self.CONFIG, max_block=16),
            make_validation_strategy("mcmc"))
        assert result.max_err > 0.0
        assert result.evaluations >= result.samples
        assert result.wasted == result.evaluations - result.samples
        assert result.wasted >= 0

    def test_max_block_one_disables_speculation(self):
        result = make_validator().validate(
            self.CONFIG, make_validation_strategy("mcmc"))
        assert result.evaluations == result.samples
        assert result.wasted == 0

    def test_default_speculates_only_for_uniform_strategies(self):
        # max_block=None (the default): chain strategies must realize
        # exactly the scalar path — a default block size would silently
        # change every existing caller's sampled chain — while uniform
        # strategies batch freely because blocking cannot change their
        # stream.
        auto = replace(self.CONFIG, max_block=None)
        mcmc_auto = make_validator().validate(
            auto, make_validation_strategy("mcmc"))
        mcmc_scalar = make_validator().validate(
            self.CONFIG, make_validation_strategy("mcmc"))
        assert mcmc_auto.evaluations == mcmc_auto.samples  # no speculation
        assert mcmc_auto.max_err == mcmc_scalar.max_err
        assert mcmc_auto.trace == mcmc_scalar.trace

        rand_auto = make_validator().validate(
            auto, make_validation_strategy("rand"))
        rand_scalar = make_validator().validate(
            self.CONFIG, make_validation_strategy("rand"))
        assert rand_auto.max_err == rand_scalar.max_err
        assert rand_auto.trace == rand_scalar.trace
        # ... but rand actually used blocks (fewer executor calls show up
        # as wasted tail draws only when the Geweke break lands mid-block;
        # the direct signal is evaluations filled to the block boundary).
        assert rand_auto.evaluations >= rand_auto.samples
