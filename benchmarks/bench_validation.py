"""Validation-path benchmarks: err() throughput and Geweke overhead.

Paper: MCMC validation converges in under 100M proposals with runtimes
under a minute; the termination test is the Geweke diagnostic.

The block benchmarks cover ``Validator.err_block``, the validator's one
evaluator: each block runs through one batched executor call per
program.  Independent-draw strategies (``rand``) evaluate
``UNIFORM_BLOCK`` proposals per block; chain strategies (``mcmc``) one.
"""

import numpy as np
import pytest

from repro.harness.figure10 import _reduced_precision_rewrite
from repro.kernels.libimf import sin_kernel
from repro.validation import ValidationConfig, Validator
from repro.validation.geweke import geweke_z
from repro.validation.proposals import TestCaseProposer
from repro.validation.strategies import make_validation_strategy

from _util import VALIDATION_PROPOSALS, one_shot


def _validator():
    spec = sin_kernel()
    return Validator(spec.program, _reduced_precision_rewrite("sin"),
                     spec.live_outs, dict(spec.ranges), spec.base_testcase)


def test_err_evaluation(benchmark):
    """Equation 13: one error-function sample (two executions + ULPs)."""
    validator = _validator()
    test = sin_kernel().base_testcase()
    err = benchmark(validator.err, test)
    benchmark.extra_info["err_ulps"] = f"{err:.3e}"


def test_validation_run_to_convergence(benchmark):
    validator = _validator()

    def validate():
        return validator.validate(ValidationConfig(
            max_proposals=VALIDATION_PROPOSALS, min_samples=500,
            check_interval=250, seed=2))

    result = one_shot(benchmark, validate)
    benchmark.extra_info.update({
        "samples": result.samples,
        "converged": result.converged,
        "max_err": f"{result.max_err:.3e}",
    })


def test_geweke_diagnostic(benchmark):
    chain = np.random.default_rng(0).standard_normal(5000)
    z = benchmark(geweke_z, chain)
    benchmark.extra_info["z"] = round(float(z), 3)


def _proposal_block(count, seed=7):
    spec = sin_kernel()
    proposer = TestCaseProposer(dict(spec.ranges))
    import random as _random

    rng = _random.Random(seed)
    current = proposer.initial(rng, spec.base_testcase())
    block = []
    for _ in range(count):
        current = proposer.propose(rng, current)
        block.append(current)
    return block


@pytest.mark.parametrize("block", (1, 8, 64))
def test_err_block_evaluation(benchmark, block):
    """Per-evaluation cost of the batched error path at block sizes."""
    validator = _validator()
    tests = _proposal_block(block)
    if block == 1:
        benchmark(validator.err, tests[0])
    else:
        benchmark(validator.err_block, tests)
    benchmark.extra_info["evals_per_round"] = block


@pytest.mark.parametrize("strategy", ("rand", "mcmc"))
def test_validation_block_throughput(benchmark, strategy):
    """Whole validation runs at each strategy's block size."""
    validator = _validator()
    config = ValidationConfig(
        max_proposals=VALIDATION_PROPOSALS, min_samples=500,
        check_interval=250, seed=2)

    def validate():
        return validator.validate(config, make_validation_strategy(strategy))

    result = one_shot(benchmark, validate)
    benchmark.extra_info.update({
        "samples": result.samples,
        "evaluations": result.evaluations,
        "wasted": result.wasted,
        "max_err": f"{result.max_err:.3e}",
    })
