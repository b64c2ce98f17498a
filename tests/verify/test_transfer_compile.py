"""Differential tests for the translate-once transfer compiler.

The compiled per-instruction closures (:mod:`repro.verify.compile`)
must replicate the interpretive abstract interpreter bit-for-bit:
identical bounds, per-live-out maps, stats accounting, and error
strings, on every shipped kernel and on random subdivisions of each
verification domain.  Prefix sharing (:meth:`IntervalTransfer.
analyze_split`) must likewise be invisible in results — it may only
save time.  Both hold in the separate and the relational domain.
"""

import math
import random

import pytest

from repro.x86.assembler import assemble
from repro.x86.memory import Memory

from repro.kernels.aek import vector as V
from repro.kernels.libimf import LIBIMF_KERNELS
from repro.verify.compile import MEM_KEY, compile_transfer
from repro.verify.interval import IntervalTransfer, IntervalUnsupported
from repro.verify.relational.domain import RelationalTransfer

REDUCED_DEGREE = {"sin": 9, "cos": 8, "tan": 9, "log": 12, "exp": 8}


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


def _libimf_transfer(name, cls=IntervalTransfer):
    factory = LIBIMF_KERNELS[name]
    spec = factory()
    rewrite = factory(REDUCED_DEGREE[name]).program
    return cls(spec.program, rewrite, spec.live_outs, dict(spec.ranges))


def _delta_transfer(cls=IntervalTransfer):
    spec = V.delta_kernel()
    ranges = dict(spec.ranges)
    ranges.update(V.delta_mem_ranges())
    return cls(spec.program, V.delta_rewrite(), spec.live_outs, ranges,
               memory=Memory(V.aek_segments()),
               concrete_gp=V.CONCRETE_GP_INDICES)


def _sample_boxes(transfer, rng, count=24):
    """The root plus a random walk of subdivision boxes below it."""
    boxes = [transfer.root]
    frontier = [transfer.root]
    while len(boxes) < count and frontier:
        box = frontier.pop(rng.randrange(len(frontier)))
        if not box.splittable:
            continue
        dim = box.widest_dim() if rng.random() < 0.7 else \
            rng.randrange(len(box.bounds))
        if box.width(dim) == 0:
            dim = box.widest_dim()
        left, right = box.split(dim)
        boxes.extend((left, right))
        frontier.extend((left, right))
    return boxes[:count]


def _stats_triple(stats):
    return (stats.boxes, stats.concrete_bit_ops, stats.widened_bit_ops)


class TestCompiledMatchesInterpretive:
    cls = IntervalTransfer

    @pytest.mark.parametrize("name", sorted(LIBIMF_KERNELS))
    def test_libimf_differential(self, name):
        transfer = _libimf_transfer(name, self.cls)
        rng = random.Random(hash(name) & 0xFFFF)
        for box in _sample_boxes(transfer, rng):
            total_c, per_c, stats_c = transfer.analyze_with_stats(box)
            total_i, per_i, stats_i = transfer.analyze_interpretive(box)
            assert total_c == total_i
            assert per_c == per_i
            assert _stats_triple(stats_c) == _stats_triple(stats_i)

    def test_delta_differential(self):
        # Memory-backed dims, concrete GP state, and MemLoc live-outs.
        transfer = _delta_transfer(self.cls)
        rng = random.Random(7)
        for box in _sample_boxes(transfer, rng, count=16):
            total_c, per_c, stats_c = transfer.analyze_with_stats(box)
            total_i, per_i, stats_i = transfer.analyze_interpretive(box)
            assert total_c == total_i
            assert per_c == per_i
            assert _stats_triple(stats_c) == _stats_triple(stats_i)

    def test_poly_differential(self):
        target, rewrite = _poly_pair()
        transfer = self.cls(target, rewrite, ["xmm0"], {"xmm0": (0.5, 2.0)})
        rng = random.Random(0)
        for box in _sample_boxes(transfer, rng):
            total_c, per_c, _ = transfer.analyze_with_stats(box)
            total_i, per_i, _ = transfer.analyze_interpretive(box)
            assert total_c == total_i
            assert per_c == per_i


class TestRelationalCompiledMatchesInterpretive(
        TestCompiledMatchesInterpretive):
    """The shared-prefix collapse and the paired-DAG windows leave the
    compiled relational path equal to the interpretive one."""

    cls = RelationalTransfer


class TestFirstTouch:
    def test_poly_target_touch_points(self):
        target, _ = _poly_pair()
        plan = compile_transfer(target)
        # movq $0.1d, xmm1 writes xmm1 only; mulsd xmm0, xmm1 is the
        # first step that can read the xmm0 input dimension.
        assert plan.first_touch(("x", 0)) == 1
        assert plan.first_touch(("x", 1)) == 0
        # No data-memory access anywhere: the memory "prefix" is the
        # whole program.
        assert plan.first_touch(MEM_KEY) == len(plan.steps)

    def test_histogram_counts_compiled_steps(self):
        target, _ = _poly_pair()
        plan = compile_transfer(target)
        assert plan.histogram == {"movq": 1, "mulsd": 1, "addsd": 1}
        assert len(plan.steps) == len(plan.opcodes) == len(plan.touches)

    def test_nop_slots_dropped(self):
        program = assemble("""
            nop
            addsd xmm0, xmm0
            nop
        """)
        plan = compile_transfer(program)
        assert plan.opcodes == ["addsd"]


class TestSplitSharing:
    cls = IntervalTransfer

    # exp and log share 11 and 22 leading instructions between target
    # and rewrite, which the relational transfer runs once.
    @pytest.mark.parametrize("name", ["sin", "log", "exp"])
    def test_sharing_identical_to_scratch(self, name):
        """Walking down left children, prefix sharing never changes the
        (bound, per_loc, stats delta, error) of either child."""
        transfer = _libimf_transfer(name, self.cls)
        box = transfer.root
        for _ in range(12):
            if not box.splittable:
                break
            dim = box.widest_dim()
            shared = transfer.analyze_split(box, dim, sharing=True)
            scratch = transfer.analyze_split(box, dim, sharing=False)
            assert shared[0] == scratch[0]  # left UnitResult
            assert shared[1] == scratch[1]  # right UnitResult
            box = box.split(dim)[0]

    def test_delta_sharing_identical(self):
        transfer = _delta_transfer(self.cls)
        box = transfer.root
        for _ in range(8):
            if not box.splittable:
                break
            dim = box.widest_dim()
            shared = transfer.analyze_split(box, dim, sharing=True)
            scratch = transfer.analyze_split(box, dim, sharing=False)
            assert shared[0] == scratch[0]
            assert shared[1] == scratch[1]
            box = box.split(dim)[1]  # right children this time


class TestRelationalSplitSharing(TestSplitSharing):
    cls = RelationalTransfer


class TestProfile:
    def test_profile_populates_op_seconds(self):
        target, rewrite = _poly_pair()
        transfer = IntervalTransfer(target, rewrite, ["xmm0"],
                                    {"xmm0": (0.5, 2.0)}, profile=True)
        _, op_secs = transfer.analyze_unit(transfer.root)
        assert op_secs
        assert set(op_secs) <= set(transfer.op_histogram)
        assert all(s >= 0.0 for s in op_secs.values())

    def test_no_profile_no_op_seconds(self):
        target, rewrite = _poly_pair()
        transfer = IntervalTransfer(target, rewrite, ["xmm0"],
                                    {"xmm0": (0.5, 2.0)})
        _, op_secs = transfer.analyze_unit(transfer.root)
        assert op_secs is None


class TestUnsupportedParity:
    def test_error_string_matches_interpreter(self):
        # Non-zeroing xorpd is outside the interval fragment: the
        # compiled closure must fail with the interpreter's message.
        target = assemble("xorpd xmm1, xmm0\n")
        _, rewrite = _poly_pair()
        transfer = IntervalTransfer(target, rewrite, ["xmm0"],
                                    {"xmm0": (0.5, 2.0)})
        with pytest.raises(IntervalUnsupported) as excinfo:
            transfer.analyze_interpretive(transfer.root)
        (bound, per_loc, delta, error), op_secs = \
            transfer.analyze_unit(transfer.root)
        assert bound == math.inf
        assert per_loc is None
        assert delta == (1, 0, 0)
        assert error == str(excinfo.value)
        assert op_secs is None

    def test_split_reports_failure_on_both_children(self):
        target = assemble("xorpd xmm1, xmm0\n")
        _, rewrite = _poly_pair()
        transfer = IntervalTransfer(target, rewrite, ["xmm0"],
                                    {"xmm0": (0.5, 2.0)})
        box = transfer.root
        l_res, r_res, _ = transfer.analyze_split(box, box.widest_dim())
        assert l_res[0] == math.inf and l_res[3] is not None
        assert r_res[0] == math.inf and r_res[3] is not None
        assert l_res[3] == r_res[3]
