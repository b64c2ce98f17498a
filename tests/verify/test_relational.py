"""Soundness and tightness tests for the relational domain.

The relational transfer's contract has two halves:

* **soundness** — per box, the reported bound dominates the true
  live-out ULP distance at every input in the box (checked against
  exhaustive grids and direct execution oracles);
* **tightness** — per box, the reported bound is never looser than the
  separate domain's (it is ``min(separate, difference window)`` by
  construction), and on correlated rewrites it is strictly tighter.
"""

import math
import random
from fractions import Fraction

import pytest

from repro.x86.assembler import assemble
from repro.x86.scalar import u2d
from repro.x86.testcase import TestCase, encode_for

from repro.core.cost import location_ulp_distance
from repro.core.runner import Runner
from repro.fp.ulp import ulp_distance
from repro.kernels.libimf import LIBIMF_KERNELS
from repro.verify import exhaustive_check
from repro.verify.bnb import BnBConfig, BnBVerifier
from repro.verify.interval import IntervalD, IntervalTransfer
from repro.verify.partition import BitBox, value_of
from repro.verify.relational.diffbound import PairBox, window_ulp_bound
from repro.verify.relational.domain import (
    RelationalTransfer,
    _input_hulls,
    shared_prefix_len,
    transfer_class,
)

REDUCED_DEGREE = {"sin": 9, "cos": 8, "tan": 9, "log": 12, "exp": 8}


def _poly_pair():
    """1.1*x two ways — a real, nonzero ULP error on most inputs."""
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


def _libimf_pair(name):
    factory = LIBIMF_KERNELS[name]
    spec = factory()
    return spec, factory(REDUCED_DEGREE[name]).program


class TestWindowBound:
    def test_zero_difference_is_zero_ulps(self):
        hull = IntervalD(1.0, 2.0)
        diff = IntervalD(0.0, 0.0)
        assert window_ulp_bound("f64", hull, hull, diff) == 0.0

    def test_unknown_difference_is_infinite(self):
        hull = IntervalD(1.0, 2.0)
        assert window_ulp_bound("f64", hull, hull, None) == math.inf

    def test_window_dominates_true_distance(self):
        # For random (t, r) drawn from random hulls, the window bound
        # computed from hulls + the exact difference interval must
        # dominate the true ULP distance.
        rng = random.Random(7)
        for _ in range(500):
            scale = 10.0 ** rng.randint(-300, 300)
            sign = rng.choice([-1.0, 1.0])
            t = sign * rng.random() * scale
            r = t + rng.choice([-1.0, 1.0]) * rng.random() * scale \
                * 10.0 ** rng.randint(-18, 0)
            th = IntervalD(min(t, r * 0.5, -abs(t) * 0.25),
                           max(t, r * 2.0, abs(t)))
            rh = IntervalD(min(r, th.lo), max(r, th.hi))
            d = t - r
            diff = IntervalD(min(d, 0.0) - abs(d) * 1e-16,
                             max(d, 0.0) + abs(d) * 1e-16)
            bound = window_ulp_bound("f64", th, rh, diff)
            assert ulp_distance(t, r) <= bound, (t, r, bound)

    def test_tight_on_adjacent_floats(self):
        t = 1.0
        r = math.nextafter(1.0, 2.0)
        hull = IntervalD(1.0, r)
        diff = IntervalD(-(r - t), r - t)
        bound = window_ulp_bound("f64", hull, hull, diff)
        assert 1.0 <= bound <= 2.0


class TestSharedPrefix:
    def test_polynomials_share_nothing(self):
        target, rewrite = _poly_pair()
        assert shared_prefix_len(target, rewrite) == 0

    @pytest.mark.parametrize("name,minimum",
                             [("exp", 5), ("log", 10)])
    def test_range_reduction_prefix_detected(self, name, minimum):
        # exp/log share their whole bit-level range-reduction run; only
        # the polynomial tail differs between degrees.
        spec, rewrite = _libimf_pair(name)
        assert shared_prefix_len(spec.program, rewrite) >= minimum

    def test_identical_programs_share_everything(self):
        target, _ = _poly_pair()
        n = shared_prefix_len(target, target)
        assert n == sum(1 for i in target.slots if i.opcode != "nop")


class TestTransferClass:
    def test_known_domains(self):
        assert transfer_class("separate") is IntervalTransfer
        assert transfer_class("relational") is RelationalTransfer

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="unknown verify domain"):
            transfer_class("entangled")

    def test_verifier_rejects_unknown_domain(self):
        target, rewrite = _poly_pair()
        with pytest.raises(ValueError, match="unknown verify domain"):
            BnBVerifier(target, rewrite, ["xmm0"], {"xmm0": (0.5, 2.0)},
                        domain="entangled")


class TestNeverLooser:
    """Per-box guarantee: relational <= separate on the same partition."""

    def _boxes(self, transfer, rng, count=40):
        root = transfer.root
        boxes = [root]
        for _ in range(count):
            box = rng.choice(boxes)
            if box.splittable:
                boxes.extend(box.split(box.widest_dim()))
        return boxes

    @pytest.mark.parametrize("name", ["exp", "tan", "sin"])
    def test_per_box_on_libimf(self, name):
        spec, rewrite = _libimf_pair(name)
        ranges = dict(spec.ranges)
        sep = IntervalTransfer(spec.program, rewrite,
                               list(spec.live_outs), ranges)
        rel = RelationalTransfer(spec.program, rewrite,
                                 list(spec.live_outs), ranges)
        assert rel.relational_error is None
        rng = random.Random(3)
        for box in self._boxes(sep, rng):
            # A box outside the fragment bounds at inf in both domains
            # (tan's near-root divisions admit 0 / 0).
            (s_bound, *_), _ = sep.analyze_unit(box)
            (r_bound, *_), _ = rel.analyze_unit(box)
            assert r_bound <= s_bound, box.bounds

    def test_strictly_tighter_on_correlated_kernels(self):
        # The acceptance floor at box-budget parity: <= on all five
        # kernels and strictly tighter on at least three.
        tighter = 0
        for name in sorted(REDUCED_DEGREE):
            spec, rewrite = _libimf_pair(name)
            bounds = {}
            for domain in ("separate", "relational"):
                verifier = BnBVerifier(spec.program, rewrite,
                                       spec.live_outs, dict(spec.ranges),
                                       domain=domain)
                bounds[domain] = verifier.run(
                    BnBConfig(max_boxes=96)).bound_ulps
            assert bounds["relational"] <= bounds["separate"], name
            if bounds["relational"] < bounds["separate"]:
                tighter += 1
        assert tighter >= 3


class TestRelationalSoundness:
    def test_poly_bound_dominates_exhaustive(self):
        target, rewrite = _poly_pair()
        ranges = {"xmm0": (0.5, 2.0)}
        verifier = BnBVerifier(target, rewrite, ["xmm0"], ranges,
                               domain="relational")
        result = verifier.run(BnBConfig(max_boxes=64))
        assert result.complete
        assert result.domain == "relational"
        exact = exhaustive_check(target, rewrite, ["xmm0"], ranges,
                                 lambda: TestCase({}), bits_per_input=10)
        assert exact.max_ulps <= result.bound_ulps

    @pytest.mark.parametrize("name", ["exp", "tan"])
    def test_libimf_bound_dominates_exhaustive(self, name):
        spec, rewrite = _libimf_pair(name)
        verifier = BnBVerifier(spec.program, rewrite, spec.live_outs,
                               dict(spec.ranges), domain="relational")
        result = verifier.run(BnBConfig(max_boxes=128))
        assert result.complete
        exact = exhaustive_check(spec.program, rewrite, spec.live_outs,
                                 dict(spec.ranges), spec.base_testcase,
                                 bits_per_input=9)
        assert exact.max_ulps <= result.bound_ulps

    def test_identical_programs_bound_zero(self):
        # The identity rule: shared DAG keys give a zero difference,
        # so identical programs certify 0 ULPs on the root box alone.
        target, _ = _poly_pair()
        verifier = BnBVerifier(target, target, ["xmm0"],
                               {"xmm0": (0.5, 2.0)}, domain="relational")
        result = verifier.run(BnBConfig(max_boxes=4))
        assert result.bound_ulps == 0.0


class TestPerBoxSoundness:
    """Per-box property against concrete execution: every emulator run
    inside a box stays within that box's relational bound, and its exact
    value difference lies in the compiled plan's root difference."""

    # Box widths in ordered indices (0 is a point box): the range where
    # the kernels' relational bounds are finite and tight.
    WIDTHS = (0, 2 ** 4, 2 ** 10, 2 ** 20, 2 ** 30)
    CENTRES = 8
    POINTS = 8

    @pytest.mark.parametrize("name", sorted(REDUCED_DEGREE))
    def test_concrete_points_inside_box_bounds(self, name):
        spec, rewrite = _libimf_pair(name)
        rel = RelationalTransfer(spec.program, rewrite,
                                 list(spec.live_outs), dict(spec.ranges))
        assert rel.relational_error is None
        runner = Runner(spec.live_outs, backend="emulator")
        prepared = (runner.prepare(spec.program), runner.prepare(rewrite))
        base = spec.base_testcase()
        rng = random.Random(name)
        checked = 0
        for width in self.WIDTHS:
            for _ in range(self.CENTRES):
                bounds = []
                for lo, hi in rel.root.bounds:
                    w = min(width, hi - lo)
                    start = min(max(rng.randint(lo, hi) - w // 2, lo), hi - w)
                    bounds.append((start, start + w))
                box = BitBox(tuple(bounds))
                _, per_loc, _ = rel.analyze_with_stats(box)
                inputs = rel._inputs_of(box.value_box(rel.dims))
                plan_box = PairBox(rel.pair_plan, *_input_hulls(inputs))
                diffs = {loc: plan_box.diff(k)
                         for k, loc in enumerate(rel.pairs)}
                tests = []
                for _ in range(self.POINTS):
                    test = base
                    for dim, (lo, hi) in zip(rel.dims, box.bounds):
                        value = value_of(rng.randint(lo, hi), dim.ftype)
                        test = test.replace(dim.loc,
                                            encode_for(dim.loc, value))
                    tests.append(test)
                for (t_val, t_sig), (r_val, r_sig) in zip(
                        runner.run_batch(prepared[0], tests),
                        runner.run_batch(prepared[1], tests)):
                    assert t_sig is None and r_sig is None
                    for loc, t_bits, r_bits in zip(runner.live_outs,
                                                   t_val, r_val):
                        key = str(loc)
                        assert location_ulp_distance(loc, r_bits, t_bits) \
                            <= per_loc[key], (box.bounds, key)
                        diff = diffs.get(key)
                        if diff is not None:
                            exact = Fraction(u2d(t_bits)) \
                                - Fraction(u2d(r_bits))
                            assert diff.lo <= exact <= diff.hi, \
                                (box.bounds, key, diff)
                    checked += 1
        assert checked == len(self.WIDTHS) * self.CENTRES * self.POINTS


class TestPerLocationBounds:
    def test_satellite_per_live_out_contributions(self):
        target, rewrite = _poly_pair()
        verifier = BnBVerifier(target, rewrite, ["xmm0"],
                               {"xmm0": (0.5, 2.0)})
        result = verifier.run(BnBConfig(max_boxes=32))
        assert set(result.per_location_bounds) == {"xmm0:d"}
        # Single live-out: its certified per-output bound IS the
        # headline bound (max over leaves of the only contribution).
        assert result.per_location_bounds["xmm0:d"] == result.bound_ulps

    def test_multi_output_bounds_sum_to_at_least_headline(self):
        target = assemble("""
            addsd xmm1, xmm0
            addsd xmm1, xmm1
        """)
        rewrite = assemble("""
            addsd xmm1, xmm0
            movq $2.0d, xmm2
            mulsd xmm2, xmm1
        """)
        verifier = BnBVerifier(target, rewrite, ["xmm0", "xmm1"],
                               {"xmm0": (0.5, 2.0), "xmm1": (0.5, 2.0)})
        result = verifier.run(BnBConfig(max_boxes=32))
        assert set(result.per_location_bounds) == {"xmm0:d", "xmm1:d"}
        # The headline bound sums contributions within one leaf; the
        # per-location maxima can only be >= that leaf's split.
        assert sum(result.per_location_bounds.values()) >= \
            result.bound_ulps
