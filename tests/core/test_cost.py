"""Tests for the cost function (Equations 9-11, Section 5.2)."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.ieee754 import DOUBLE, SINGLE, double_to_bits
from repro.fp.ulp import bits_from_ordered
from repro.x86.assembler import assemble
from repro.x86.locations import MemLoc, parse_loc
from repro.x86.testcase import TestCase, uniform_testcases

from repro.core.cost import (CostConfig, CostFunction, location_ulp_distance,
                             location_ulp_distance_columns)


def make_cost(target_asm, eta=0.0, k=1.0, **kwargs):
    target = assemble(target_asm)
    tests = uniform_testcases(random.Random(0), 16, {"xmm0": (-10.0, 10.0)})
    return CostFunction(target, tests, ["xmm0"],
                        CostConfig(eta=eta, k=k, **kwargs))


class TestConfigValidation:
    def test_rejects_bad_reduction(self):
        with pytest.raises(ValueError):
            CostConfig(reduction="mean")

    def test_rejects_bad_compress(self):
        with pytest.raises(ValueError):
            CostConfig(compress="sqrt")

    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError):
            CostConfig(eta=-1.0)


class TestEquivalenceTerm:
    def test_identical_program_costs_only_perf(self):
        cost = make_cost("addsd xmm0, xmm0")
        result = cost(cost.target)
        assert result.eq == 0.0
        assert result.correct
        assert result.perf > 0.0

    def test_semantically_equal_rewrite_is_correct(self):
        cost = make_cost("addsd xmm0, xmm0")
        rewrite = assemble("movq $2.0d, xmm1\nmulsd xmm1, xmm0")
        assert cost(rewrite).correct

    def test_wrong_rewrite_has_positive_eq(self):
        cost = make_cost("addsd xmm0, xmm0")
        wrong = assemble("mulsd xmm0, xmm0")
        assert cost(wrong).eq > 0.0

    def test_eta_floor_forgives_small_errors(self):
        # x*2 via addsd vs a slightly perturbed constant multiply.
        cost_strict = make_cost("addsd xmm0, xmm0", eta=0.0)
        near2 = math.nextafter(2.0, 3.0)
        rewrite = assemble(f"movq $0x{double_to_bits(near2):x}, xmm1\n"
                           "mulsd xmm1, xmm0")
        assert cost_strict(rewrite).eq > 0.0
        cost_loose = make_cost("addsd xmm0, xmm0", eta=16.0)
        assert cost_loose(rewrite).eq == 0.0

    def test_signal_penalty(self):
        cost = make_cost("addsd xmm0, xmm0")
        faulting = assemble("movsd (rax), xmm0")
        result = cost(faulting)
        assert result.signalled
        assert result.eq == cost.config.ws

    def test_k_zero_is_synthesis_mode(self):
        cost = make_cost("addsd xmm0, xmm0", k=0.0)
        result = cost(cost.target)
        assert result.perf == 0.0
        assert result.total == result.eq


class TestReduction:
    def test_max_vs_sum(self):
        target = assemble("addsd xmm0, xmm0")
        tests = uniform_testcases(random.Random(0), 8,
                                  {"xmm0": (-10.0, 10.0)})
        wrong = assemble("mulsd xmm0, xmm0")
        cfg_max = CostConfig(reduction="max", k=0.0)
        cfg_sum = CostConfig(reduction="sum", k=0.0)
        eq_max = CostFunction(target, tests, ["xmm0"], cfg_max)(wrong).eq
        eq_sum = CostFunction(target, tests, ["xmm0"], cfg_sum)(wrong).eq
        assert eq_sum > eq_max  # sum accumulates over test cases

    def test_max_bounded_by_worst_case(self):
        # Section 5.2 rationale: with max-reduction the correctness cost
        # cannot grow with the number of test cases.
        target = assemble("addsd xmm0, xmm0")
        wrong = assemble("mulsd xmm0, xmm0")
        costs = []
        for n in (4, 64):
            tests = uniform_testcases(random.Random(0), n,
                                      {"xmm0": (1.0, 10.0)})
            cfg = CostConfig(reduction="max", k=0.0, compress="none")
            costs.append(CostFunction(target, tests, ["xmm0"], cfg)(wrong).eq)
        assert costs[1] <= costs[0] * 4  # same order of magnitude


class TestCompression:
    def test_log2_compression(self):
        target = assemble("addsd xmm0, xmm0")
        tests = uniform_testcases(random.Random(0), 4, {"xmm0": (1.0, 2.0)})
        wrong = assemble("mulsd xmm0, xmm0")
        raw = CostFunction(target, tests, ["xmm0"],
                           CostConfig(k=0.0, compress="none"))(wrong).eq
        compressed = CostFunction(target, tests, ["xmm0"],
                                  CostConfig(k=0.0, compress="log2"))(wrong).eq
        assert compressed == pytest.approx(math.log2(1.0 + raw))


class TestLocationDistance:
    def test_f64_is_ulps(self):
        a = double_to_bits(1.0)
        b = double_to_bits(math.nextafter(1.0, 2.0))
        assert location_ulp_distance(parse_loc("xmm0"), a, b) == 1.0

    def test_integer_is_hamming(self):
        loc = parse_loc("rax")
        assert location_ulp_distance(loc, 0b1011, 0b0010) == 2.0

    def test_memloc_f32(self):
        loc = MemLoc("seg", 0, "f32")
        assert location_ulp_distance(loc, 0x3F800000, 0x3F800002) == 2.0


# One location per measure and width: ULP' over doubles and singles,
# Hamming distance over 64- and 32-bit integers.
COLUMN_LOCS = {64: (parse_loc("xmm0"), parse_loc("rax")),
               32: (parse_loc("xmm0:s1"), parse_loc("eax"))}

# ±0, ±inf, denormals, NaN payloads of both signs, the largest finite
# values and the all-ones patterns.
EDGE_BITS = {
    64: (0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
         0x1, 0x8000000000000001, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,
         0x7FF8000000000001, 0xFFF8000000000001, 0x7FF0000000000001,
         0xFFF0000000000001, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
         0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF),
    32: (0x0, 0x80000000, 0x7F800000, 0xFF800000, 0x1, 0x80000001,
         0x007FFFFF, 0x807FFFFF, 0x7FC00001, 0xFFC00001, 0x7F800001,
         0xFF800001, 0x7F7FFFFF, 0xFF7FFFFF, 0x7FFFFFFF, 0xFFFFFFFF),
}


def _assert_columns_match(loc, pairs):
    a = np.array([x for x, _ in pairs], dtype=np.uint64)
    b = np.array([y for _, y in pairs], dtype=np.uint64)
    column = location_ulp_distance_columns(loc, a, b)
    assert column.dtype == np.float64
    assert column.tolist() == [location_ulp_distance(loc, x, y)
                               for x, y in pairs]


class TestLocationDistanceColumns:
    """The column distance equals the scalar one lane by lane."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_scalar_lane_by_lane(self, data):
        width = data.draw(st.sampled_from((64, 32)))
        bits = st.integers(0, (1 << width) - 1) | st.sampled_from(
            EDGE_BITS[width])
        pairs = data.draw(st.lists(st.tuples(bits, bits), max_size=40))
        for loc in COLUMN_LOCS[width]:
            _assert_columns_match(loc, pairs)

    @pytest.mark.parametrize("width", (64, 32))
    def test_edge_patterns(self, width):
        pairs = list(itertools.product(EDGE_BITS[width], repeat=2))
        for loc in COLUMN_LOCS[width]:
            _assert_columns_match(loc, pairs)

    def test_extreme_pair_is_exact_before_conversion(self):
        # The two patterns furthest apart: 2**64 - 2 ULPs, which rounds
        # to 2**64 only in the final float conversion.
        loc = parse_loc("xmm0")
        _assert_columns_match(
            loc, [(0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF)])
        assert location_ulp_distance(
            loc, 0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF) == 2.0 ** 64

    @pytest.mark.parametrize("fmt, loc", [(DOUBLE, "xmm0"),
                                          (SINGLE, "xmm0:s1")])
    def test_distances_where_the_conversion_rounds(self, fmt, loc):
        # Just above 2**53 float64 spacing exceeds 1, and just above
        # 2**63 the pair straddles the sign of the ordered keys.
        top = 1 << (fmt.width - 1)
        pairs = []
        for distance in ((1 << 53) + 1, (1 << 53) + 3, (1 << 63) + 1,
                         (1 << 63) + 3, (1 << 64) - 3):
            start = max(-top + 1, min(top - 1 - distance, -distance // 2))
            end = start + distance
            if end >= top:
                continue  # wider than the format's value set
            pairs.append((bits_from_ordered(start, fmt),
                          bits_from_ordered(end, fmt)))
        for start in (-top + 1, -1, 0, top - 4):
            pairs.append((bits_from_ordered(start, fmt),
                          bits_from_ordered(min(start + 3, top - 1), fmt)))
        _assert_columns_match(parse_loc(loc), pairs)


# The sign boundaries of the ordered keys, beside the edge patterns.
SIGN_BITS = {64: ((1 << 63) - 1, 1 << 63, (1 << 63) + 1),
             32: ((1 << 31) - 1, 1 << 31, (1 << 31) + 1)}


def _reference_err(cost, values, expected):
    """Equation 9 through :func:`location_ulp_distance`, with the eta
    excess written out."""
    config = cost.config
    total = 0.0
    for loc, weight, got, want in zip(cost.runner.live_outs, cost._weights,
                                      values, expected):
        excess = location_ulp_distance(loc, got, want) - config.eta
        if excess <= 0.0:
            excess = 0.0
        elif config.compress == "log2":
            excess = math.log2(1.0 + excess)
        total += weight * excess
    return total


class TestInlineErrValues:
    """``_err_values`` inlines :func:`location_ulp_distance` and the eta
    excess; it must agree with them on every pair of patterns."""

    LOCS = ("xmm0", "xmm1:s1", "rax", "eax")

    def _cost(self, locs, **config):
        target = assemble("addsd xmm0, xmm0")
        tests = uniform_testcases(random.Random(0), 2,
                                  {"xmm0": (-10.0, 10.0)})
        return CostFunction(target, tests, list(locs), CostConfig(**config))

    @staticmethod
    def _bits(width):
        # 32-bit locations also get patterns with stray high bits, which
        # the f32 distance masks off.
        return (st.integers(0, (1 << width) - 1)
                | st.integers(0, (1 << 64) - 1)
                | st.sampled_from(EDGE_BITS[width] + SIGN_BITS[width]))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_distance_matches_location_ulp_distance(self, data):
        name = data.draw(st.sampled_from(self.LOCS))
        loc = parse_loc(name)
        width = 64 if loc.width == 64 else 32
        a, b = data.draw(self._bits(width)), data.draw(self._bits(width))
        cost = self._cost([name], compress="none")
        assert cost._err_values((a,), (b,)) == \
            location_ulp_distance(loc, a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equation_9_matches_generic_helpers(self, data):
        eta = data.draw(st.sampled_from((0.0, 1.0, 3.0, 1e9, 2.0 ** 63)))
        compress = data.draw(st.sampled_from(("log2", "none")))
        cost = self._cost(self.LOCS, eta=eta, compress=compress, wr=0.5)
        widths = [64 if parse_loc(n).width == 64 else 32 for n in self.LOCS]
        values = tuple(data.draw(self._bits(w)) for w in widths)
        expected = tuple(data.draw(self._bits(w)) for w in widths)
        assert cost._err_values(values, expected) == \
            _reference_err(cost, values, expected)

    @pytest.mark.parametrize("width", (64, 32))
    def test_edge_and_sign_patterns(self, width):
        patterns = EDGE_BITS[width] + SIGN_BITS[width]
        for name in self.LOCS:
            loc = parse_loc(name)
            if (64 if loc.width == 64 else 32) != width:
                continue
            cost = self._cost([name], compress="none")
            for a, b in itertools.product(patterns, repeat=2):
                assert cost._err_values((a,), (b,)) == \
                    location_ulp_distance(loc, a, b), (name, a, b)


class TestMemoryLiveOuts:
    def test_memory_output_compared(self):
        target = assemble("movsd xmm0, (rax)")
        segments = lambda: [  # noqa: E731
            __import__("repro.x86.memory", fromlist=["Segment"]).Segment(
                "out", 0x100, bytes(8))
        ]
        tests = uniform_testcases(random.Random(0), 4,
                                  {"xmm0": (-2.0, 2.0)},
                                  segments_factory=segments)
        tests = [tc.replace("rax", 0x100) for tc in tests]
        out_loc = MemLoc("out", 0, "f64")
        cost = CostFunction(target, tests, [out_loc], CostConfig(k=0.0))
        assert cost(target).eq == 0.0
        wrong = assemble("addsd xmm0, xmm0\nmovsd xmm0, (rax)")
        assert cost(wrong).eq > 0.0


class TestEarlyRejectAndCache:
    def test_early_reject_truncates_consistently(self):
        cost = make_cost("addsd xmm0, xmm0")
        wrong = assemble("mulsd xmm0, xmm0")
        full = cost.cost(wrong)
        truncated = cost.cost(wrong, early_reject_above=0.0)
        assert truncated.total <= full.total

    def test_cache_hits_return_equal_results(self):
        cost = make_cost("addsd xmm0, xmm0")
        rewrite = assemble("movq $2.0d, xmm1\nmulsd xmm1, xmm0")
        first = cost.cost(rewrite)
        second = cost.cost(rewrite)
        assert first == second

    def test_requires_tests(self):
        with pytest.raises(ValueError):
            CostFunction(assemble("addsd xmm0, xmm0"), [], ["xmm0"])

    def test_rejects_nonpositive_cache_size(self):
        target = assemble("addsd xmm0, xmm0")
        tests = uniform_testcases(random.Random(0), 4,
                                  {"xmm0": (-10.0, 10.0)})
        with pytest.raises(ValueError):
            CostFunction(target, tests, ["xmm0"], cache_size=0)


class TestLruCache:
    """The memo is a bounded LRU, not a wipe-everything-at-capacity dict."""

    def _cost(self, cache_size):
        target = assemble("addsd xmm0, xmm0")
        tests = uniform_testcases(random.Random(0), 4,
                                  {"xmm0": (-10.0, 10.0)})
        return CostFunction(target, tests, ["xmm0"],
                            CostConfig(eta=0.0, k=1.0),
                            cache_size=cache_size)

    @staticmethod
    def _program(i):
        return assemble(f"movq $0x{0x3FF0000000000000 + i:x}, xmm1\n"
                        "mulsd xmm1, xmm0")

    def test_cache_never_exceeds_bound(self):
        cost = self._cost(cache_size=4)
        for i in range(12):
            cost.cost(self._program(i))
            assert len(cost._cache) <= 4
        assert len(cost._cache) == 4

    def test_recently_used_entries_survive_eviction(self):
        cost = self._cost(cache_size=2)
        a, b, c = self._program(0), self._program(1), self._program(2)
        cost.cost(a)
        cost.cost(b)
        cost.cost(a)  # refresh a: b becomes least-recently-used
        cost.cost(c)  # evicts b, not a
        assert a in cost._cache and c in cost._cache
        assert b not in cost._cache

    def test_hit_and_miss_counters(self):
        cost = self._cost(cache_size=8)
        a = self._program(0)
        cost.cost(a)
        # The target was evaluated via runner.outputs_for, not cost();
        # the first cost(a) call is the only miss so far.
        assert (cost.cache_hits, cost.cache_misses) == (0, 1)
        cost.cost(a)
        assert (cost.cache_hits, cost.cache_misses) == (1, 1)

    def test_eviction_is_fifo_over_stale_entries(self):
        cost = self._cost(cache_size=3)
        programs = [self._program(i) for i in range(5)]
        for program in programs:
            cost.cost(program)
        # Only the three most recent distinct programs remain.
        assert [p in cost._cache for p in programs] == \
            [False, False, True, True, True]
