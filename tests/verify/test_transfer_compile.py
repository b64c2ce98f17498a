"""Tests for the translate-once transfer compiler.

The compiled per-instruction closures (:mod:`repro.verify.compile`) are
the interval semantics; ``test_transfer_soundness.py`` holds them to the
emulator.  Here: the dependence metadata (touch sets, first touches),
the fragment boundary (every opcode without a compiler, and every shape
a compiler rejects, fails with one canonical message on every path),
profiling, and that prefix sharing (:meth:`IntervalTransfer.
analyze_split`) and the relational shared-prefix collapse are invisible
in results — they may only save time.  Sharing is checked in the
separate and the relational domain.
"""

import math
import random

import pytest

from repro.x86.assembler import assemble
from repro.x86.memory import Memory
from repro.x86.opcodes import OPCODES
from repro.x86.operands import Kind

from repro.kernels.aek import vector as V
from repro.kernels.libimf import LIBIMF_KERNELS
from repro.verify.compile import _COMPILERS, MEM_KEY, compile_transfer
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


def _unit(transfer, box):
    """``analyze_with_stats`` as (bound, per-live-out map, counts), or
    the error text."""
    try:
        total, per_loc, stats = transfer.analyze_with_stats(box)
    except IntervalUnsupported as exc:
        return str(exc)
    return total, per_loc, _stats_triple(stats)


class TestSharedPrefixCollapse:
    """The relational transfer runs the pair's common leading
    instructions once; its results equal running both programs."""

    @pytest.mark.parametrize("name,prefix", [("exp", 11), ("log", 22)])
    def test_collapse_matches_two_runs(self, name, prefix, monkeypatch):
        transfer = _libimf_transfer(name, RelationalTransfer)
        assert transfer.shared_prefix == prefix
        boxes = _sample_boxes(transfer, random.Random(name))
        collapsed = [_unit(transfer, box) for box in boxes]
        monkeypatch.setattr(transfer, "shared_prefix", 0)
        assert [_unit(transfer, box) for box in boxes] == collapsed
        assert any(not isinstance(unit, str) and unit[2][1]
                   for unit in collapsed), "no concrete bit op ran"


# Operands for the one-instruction programs below, by slot kind: the
# destination is xmm0 (the live-out) or rax.
_OPERAND = {Kind.XMM: "xmm1", Kind.R64: "rcx", Kind.R32: "ecx",
            Kind.IMM: "$1"}
_DEST = {Kind.XMM: "xmm0", Kind.R64: "rax", Kind.R32: "eax"}


def _outside_fragment():
    """(instruction text, expected message) for every ISA opcode without
    a compiler, plus a shape its compiler rejects."""
    cases = []
    for name, spec in sorted(OPCODES.items()):
        if name in _COMPILERS or name.startswith("cmov") or name == "nop":
            continue
        *sources, dest = spec.slots
        ops = [next(_OPERAND[k] for k in _OPERAND if k in slot.kinds)
               for slot in sources]
        ops.append(next(_DEST[k] for k in _DEST if k in dest.kinds))
        cases.append((f"{name} {', '.join(ops)}",
                      f"opcode {name} outside the interval-analyzable "
                      f"fragment"))
    cases.append(("xorpd xmm1, xmm0", "xorpd outside the zeroing idiom"))
    return cases


_OUTSIDE = _outside_fragment()


class TestUnsupportedParity:
    def test_every_isa_opcode_has_a_step(self):
        # 28 ISA opcodes have no compiler; nop is dropped at compile
        # time and the cmov family is matched by prefix.
        assert len(_OUTSIDE) == 28 + 1

    @pytest.mark.parametrize("cls", [IntervalTransfer, RelationalTransfer])
    @pytest.mark.parametrize("text,message", _OUTSIDE,
                             ids=[t.split()[0] for t, _ in _OUTSIDE[:-1]]
                             + ["xorpd-nonzeroing"])
    def test_canonical_message_on_every_path(self, text, message, cls):
        _, rewrite = _poly_pair()
        transfer = cls(assemble(text + "\n"), rewrite, ["xmm0"],
                       {"xmm0": (0.5, 2.0)})
        plan = transfer._plans[0]
        assert plan.touches == [frozenset()]
        box = transfer.root
        unit, op_secs = transfer.analyze_unit(box)
        assert unit == (math.inf, None, (1, 0, 0), message)
        assert op_secs is None
        left, right, _ = transfer.analyze_split(box, box.widest_dim())
        assert left == right == unit
        assert transfer.analyze_batch(list(box.split(0))) == [unit, unit]

    def test_error_string_is_canonical(self):
        # Non-zeroing xorpd is outside the interval fragment.
        target = assemble("xorpd xmm1, xmm0\n")
        _, rewrite = _poly_pair()
        transfer = IntervalTransfer(target, rewrite, ["xmm0"],
                                    {"xmm0": (0.5, 2.0)})
        with pytest.raises(IntervalUnsupported,
                           match="^xorpd outside the zeroing idiom$"):
            transfer.analyze_with_stats(transfer.root)
        (bound, per_loc, delta, error), op_secs = \
            transfer.analyze_unit(transfer.root)
        assert bound == math.inf
        assert per_loc is None
        assert delta == (1, 0, 0)
        assert error == "xorpd outside the zeroing idiom"
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
