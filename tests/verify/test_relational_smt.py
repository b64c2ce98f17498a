"""SMT cross-check tier (optional z3 dependency).

The z3-backed checks are skipped wholesale when z3 is not installed
(`pytest.importorskip`); the degradation tests below them always run —
without z3 the tier must answer 'unknown', never crash.
"""

import math

import pytest

from repro.x86.assembler import assemble

from repro.kernels.libimf import LIBIMF_KERNELS
from repro.verify.bnb import BnBConfig, BnBVerifier
from repro.verify.interval import IntervalD
from repro.verify.relational import smt_available, smt_cross_check
from repro.verify.relational.domain import RelationalTransfer
from repro.verify.relational.smt import _pairs_and_inputs, _value_tolerance


def _poly_pair():
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


def _poly_transfer():
    target, rewrite = _poly_pair()
    return RelationalTransfer(target, rewrite, ["xmm0"],
                              {"xmm0": (0.5, 2.0)})


class TestWithoutZ3:
    """Always runs: graceful degradation when z3 is absent."""

    def test_infinite_bound_vacuously_verified(self):
        outcome = smt_cross_check(_poly_transfer(), math.inf)
        assert outcome.verified
        assert outcome.mode == "none"

    def test_finite_bound_without_z3_is_unknown(self):
        if smt_available():
            pytest.skip("z3 installed; covered by TestWithZ3")
        outcome = smt_cross_check(_poly_transfer(), 4.0)
        assert outcome.status == "unknown"
        assert "z3" in outcome.detail

    def test_outcome_serializes(self):
        outcome = smt_cross_check(_poly_transfer(), math.inf)
        doc = outcome.to_dict()
        assert doc["status"] == "verified"
        assert set(doc) == {"status", "mode", "detail", "counterexample"}


class TestValueTolerance:
    """The real relaxation's value tolerance needs no solver; its output
    hulls come from the compiled pair plan.  Values pinned exactly."""

    def test_poly_pair(self):
        pairs, f64_inputs = _pairs_and_inputs(_poly_transfer())
        assert f64_inputs == {"x0l": IntervalD(0.5, 2.0)}
        assert _value_tolerance(pairs, f64_inputs, 0.0) == 0.0
        assert _value_tolerance(pairs, f64_inputs, 4.0) == \
            4.440892098500626e-16
        assert _value_tolerance(pairs, f64_inputs, 1e6) == \
            1.1102230246251565e-10

    @pytest.mark.parametrize("lo,hi,tolerance", [
        (0.25, 0.5, 1.6653345369377348e-16),
        (0.5, 0.5, 6.661338147750939e-16),
    ])
    def test_exp_sub_box(self, lo, hi, tolerance):
        factory = LIBIMF_KERNELS["exp"]
        spec = factory()
        transfer = RelationalTransfer(spec.program, factory(8).program,
                                      list(spec.live_outs),
                                      dict(spec.ranges))
        pairs, _ = _pairs_and_inputs(transfer)
        assert _value_tolerance(pairs, {"x0l": IntervalD(lo, hi)},
                                3.0) == tolerance


class TestWithZ3:
    """Bit-precise and relaxation modes, cross-checked against BnB."""

    @pytest.fixture(autouse=True)
    def _need_z3(self):
        pytest.importorskip("z3")

    def test_certified_bound_confirmed(self):
        # The BnB-certified bound is sound, so the solver must not
        # find a violating input.
        target, rewrite = _poly_pair()
        verifier = BnBVerifier(target, rewrite, ["xmm0"],
                               {"xmm0": (0.5, 2.0)}, domain="relational")
        result = verifier.run(BnBConfig(max_boxes=128))
        outcome = smt_cross_check(verifier.transfer, result.bound_ulps,
                                  timeout_ms=120_000)
        assert outcome.status in ("verified", "unknown")
        if outcome.status == "verified":
            assert outcome.mode in ("fp", "real")

    def test_understated_bound_refuted(self):
        # Claiming 0 ULPs for two genuinely different roundings must
        # produce a counterexample in the bit-precise mode.
        outcome = smt_cross_check(_poly_transfer(), 0.0,
                                  timeout_ms=120_000)
        if outcome.mode == "fp":
            assert outcome.status == "refuted"
            assert outcome.counterexample

    def test_identical_programs_verified_at_zero(self):
        target, _ = _poly_pair()
        transfer = RelationalTransfer(target, target, ["xmm0"],
                                      {"xmm0": (0.5, 2.0)})
        outcome = smt_cross_check(transfer, 0.0, timeout_ms=120_000)
        assert outcome.status == "verified"

    def test_certificate_cross_check_wrapper(self):
        from repro.verify.relational import cross_check_certificate

        target, rewrite = _poly_pair()
        verifier = BnBVerifier(target, rewrite, ["xmm0"],
                               {"xmm0": (0.5, 2.0)}, domain="relational")
        result = verifier.run(BnBConfig(max_boxes=64))
        cert = verifier.certificate(result)
        outcome = cross_check_certificate(cert, target, rewrite,
                                          timeout_ms=120_000)
        assert outcome.status in ("verified", "unknown")

    @pytest.mark.parametrize("name", ["exp"])
    def test_bit_level_kernels_degrade_to_unknown(self, name):
        # exp's range reduction uses int ops outside the FP fragment;
        # the tier must answer honestly, not crash or claim falsely.
        factory = LIBIMF_KERNELS[name]
        spec = factory()
        rewrite = factory(8).program
        transfer = RelationalTransfer(spec.program, rewrite,
                                      list(spec.live_outs),
                                      dict(spec.ranges))
        outcome = smt_cross_check(transfer, 1.0, timeout_ms=30_000)
        assert outcome.status in ("unknown", "refuted")
