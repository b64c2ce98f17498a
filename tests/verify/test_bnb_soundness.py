"""Differential soundness tests for the branch-and-bound verifier.

Three obligations, each checked against an independent oracle:

* the certified bound dominates an exhaustive enumeration of a
  quantized subdomain (exact on its grid) and the max error a
  Geweke-converged MCMC validation run observed;
* the independent checker accepts genuine certificates and rejects
  tampered ones (loosened leaf bound, dropped leaf, duplicated leaf);
* every shipped kernel — the five libimf benchmarks and the aek delta
  fragment — emits a checkable certificate without falling back to
  :class:`IntervalUnsupported`.
"""

import dataclasses
import math

import pytest

from repro.x86.assembler import assemble
from repro.x86.memory import Memory
from repro.x86.testcase import TestCase

from repro.kernels.aek import vector as V
from repro.kernels.libimf import LIBIMF_KERNELS
from repro.validation import ValidationConfig, Validator
from repro.verify import checker, exhaustive_check
from repro.verify.bnb import BnBConfig, BnBVerifier, seeds_from_validation
from repro.verify.certificate import Certificate

# Degree-reduced rewrites give a real, nonzero approximation error.
REDUCED_DEGREE = {"sin": 9, "cos": 8, "tan": 9, "log": 12, "exp": 8}


def _poly_pair():
    """1.1*x two ways: ``x + 0.1*x`` (two roundings) vs a single fused
    multiply — a real, nonzero ULP error on most inputs."""
    target = assemble("""
        movq $0.1d, xmm1
        mulsd xmm0, xmm1
        addsd xmm1, xmm0
    """)
    rewrite = assemble("""
        movq $1.1d, xmm1
        mulsd xmm1, xmm0
    """)
    return target, rewrite


@pytest.fixture(scope="module")
def delta_env():
    """Shared delta setup: validator counterexample + seeded verifier."""
    spec = V.delta_kernel()
    ranges = dict(spec.ranges)
    ranges.update(V.delta_mem_ranges())
    validator = Validator(spec.program, V.delta_rewrite(),
                          spec.live_outs, dict(spec.ranges),
                          spec.base_testcase)
    validation = validator.validate(ValidationConfig(
        max_proposals=10_000, seed=0))
    verifier = BnBVerifier(spec.program, V.delta_rewrite(),
                           spec.live_outs, ranges,
                           memory=Memory(V.aek_segments()),
                           concrete_gp=V.CONCRETE_GP_INDICES)
    seeds = seeds_from_validation(validation, verifier.dims)
    return spec, validation, verifier, seeds


class TestDominance:
    def test_poly_bound_dominates_exhaustive(self):
        # x*1.1 vs x + x*0.1: one rounding step apart, real ULP error.
        target, rewrite = _poly_pair()
        ranges = {"xmm0": (0.5, 2.0)}
        verifier = BnBVerifier(target, rewrite, ["xmm0"], ranges)
        result = verifier.run(BnBConfig(max_boxes=64))
        assert result.complete
        exact = exhaustive_check(target, rewrite, ["xmm0"], ranges,
                                 lambda: TestCase({}), bits_per_input=10)
        assert exact.max_ulps <= result.bound_ulps

    def test_poly_bound_dominates_validator(self):
        target, rewrite = _poly_pair()
        ranges = {"xmm0": (0.5, 2.0)}
        validator = Validator(target, rewrite, ["xmm0"], ranges,
                              lambda: TestCase({}))
        validation = validator.validate(ValidationConfig(
            max_proposals=8_000, seed=0))
        assert validation.converged
        verifier = BnBVerifier(target, rewrite, ["xmm0"], ranges)
        seeds = seeds_from_validation(validation, verifier.dims)
        result = verifier.run(BnBConfig(max_boxes=64, seeds=seeds))
        assert result.complete
        assert validation.max_err <= result.bound_ulps
        # The seed supplied a usable lower bound.
        assert result.lower_bound >= validation.max_err

    @pytest.mark.parametrize("name", ["sin", "exp"])
    def test_libimf_bound_dominates_validator(self, name):
        factory = LIBIMF_KERNELS[name]
        spec = factory()
        rewrite = factory(REDUCED_DEGREE[name]).program
        validator = Validator(spec.program, rewrite, spec.live_outs,
                              dict(spec.ranges), spec.base_testcase)
        validation = validator.validate(ValidationConfig(
            max_proposals=6_000, seed=0))
        verifier = BnBVerifier(spec.program, rewrite, spec.live_outs,
                               dict(spec.ranges))
        seeds = seeds_from_validation(validation, verifier.dims)
        result = verifier.run(BnBConfig(max_boxes=64, seeds=seeds))
        assert result.complete
        assert math.isfinite(result.bound_ulps)
        assert validation.max_err <= result.bound_ulps

    def test_delta_bound_dominates_e11_counterexample(self, delta_env):
        # E11's regression: the validator found an error the old
        # max-over-live-outs bound under-reported (ROADMAP open item).
        spec, validation, verifier, seeds = delta_env
        result = verifier.run(BnBConfig(max_boxes=128, seeds=seeds))
        assert result.complete
        assert validation.max_err <= result.bound_ulps
        assert result.seeds_covered == len(seeds)


class TestCheckerRejectsTampering:
    @pytest.fixture(scope="class")
    def certified(self):
        target, rewrite = _poly_pair()
        verifier = BnBVerifier(target, rewrite, ["xmm0"],
                               {"xmm0": (0.5, 2.0)})
        result = verifier.run(BnBConfig(max_boxes=32))
        cert = verifier.certificate(result)
        return target, rewrite, cert

    def test_genuine_certificate_accepted(self, certified):
        target, rewrite, cert = certified
        report = checker.check(cert, target, rewrite)
        assert report.ok, report.failures
        assert report.leaves_checked == len(cert.leaves)

    def test_round_trip_through_json(self, certified):
        target, rewrite, cert = certified
        assert Certificate.from_json(cert.to_json()) == cert

    def test_rejects_tampered_leaf_bound(self, certified):
        target, rewrite, cert = certified
        worst = max(range(len(cert.leaf_bounds)),
                    key=lambda i: cert.leaf_bounds[i])
        bounds = list(cert.leaf_bounds)
        bounds[worst] = 0.0
        bad = dataclasses.replace(
            cert, leaf_bounds=tuple(bounds),
            bound_ulps=max(b for b in bounds))
        report = checker.check(bad, target, rewrite)
        assert not report.ok
        assert any("below the derived bound" in f for f in report.failures)

    def test_rejects_dropped_leaf(self, certified):
        target, rewrite, cert = certified
        bad = dataclasses.replace(cert, leaves=cert.leaves[1:],
                                  leaf_bounds=cert.leaf_bounds[1:])
        report = checker.check(bad, target, rewrite)
        assert not report.ok

    def test_rejects_overlapping_leaves(self, certified):
        target, rewrite, cert = certified
        bad = dataclasses.replace(
            cert, leaves=cert.leaves + (cert.leaves[0],),
            leaf_bounds=cert.leaf_bounds + (cert.leaf_bounds[0],))
        report = checker.check(bad, target, rewrite)
        assert not report.ok
        assert any("overlap" in f or "volume" in f
                   for f in report.failures)

    def test_rejects_wrong_program(self, certified):
        _, rewrite, cert = certified
        other = assemble("addsd xmm0, xmm0\n")
        report = checker.check(cert, other, rewrite)
        assert not report.ok
        assert any("digest" in f for f in report.failures)


class TestAllKernelsCertify:
    @pytest.mark.parametrize("name", sorted(LIBIMF_KERNELS))
    def test_libimf_kernel_emits_checkable_cert(self, name, tmp_path):
        factory = LIBIMF_KERNELS[name]
        spec = factory()
        rewrite = factory(REDUCED_DEGREE[name]).program
        verifier = BnBVerifier(spec.program, rewrite, spec.live_outs,
                               dict(spec.ranges))
        result = verifier.run(BnBConfig(max_boxes=16))
        assert result.complete  # no IntervalUnsupported leaf survived
        assert math.isfinite(result.bound_ulps)
        cert = verifier.certificate(result)
        path = tmp_path / f"{name}.cert.json"
        cert.save(path)
        report = checker.check(Certificate.load(path), spec.program,
                               rewrite)
        assert report.ok, report.failures

    def test_delta_emits_checkable_cert(self, tmp_path):
        spec = V.delta_kernel()
        ranges = dict(spec.ranges)
        ranges.update(V.delta_mem_ranges())
        memory = Memory(V.aek_segments())
        verifier = BnBVerifier(spec.program, V.delta_rewrite(),
                               spec.live_outs, ranges, memory=memory,
                               concrete_gp=V.CONCRETE_GP_INDICES)
        result = verifier.run(BnBConfig(max_boxes=32))
        assert result.complete
        cert = verifier.certificate(result)
        path = tmp_path / "delta.cert.json"
        cert.save(path)
        report = checker.check(Certificate.load(path), spec.program,
                               V.delta_rewrite(), memory=memory,
                               concrete_gp=V.CONCRETE_GP_INDICES)
        assert report.ok, report.failures


class TestTermination:
    def test_budget_termination(self):
        target, rewrite = _poly_pair()
        result = BnBVerifier(target, rewrite, ["xmm0"],
                             {"xmm0": (0.5, 2.0)}).run(
            BnBConfig(max_boxes=8))
        assert result.termination == "budget"
        assert result.boxes_explored <= 8 + 2  # one batch of slack

    def test_deadline_termination(self):
        factory = LIBIMF_KERNELS["log"]
        spec = factory()
        verifier = BnBVerifier(spec.program, factory(12).program,
                               spec.live_outs, dict(spec.ranges))
        result = verifier.run(BnBConfig(max_boxes=10 ** 6, deadline=0.3))
        assert result.termination == "deadline"
        assert result.wall_time < 5.0

    def test_gap_termination_with_seed(self, delta_env):
        # Without a seed the lower bound is 0 and a relative gap can
        # never close; with the validator's counterexample it does.
        spec, validation, verifier, seeds = delta_env
        result = verifier.run(BnBConfig(max_boxes=5_000, seeds=seeds,
                                        target_gap=1_000.0))
        assert result.termination == "gap"
        assert result.gap <= 1_000.0
        assert result.lower_bound >= validation.max_err
