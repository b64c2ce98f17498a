"""Per-opcode soundness: every interval transfer against the emulator.

The compiled closures of :mod:`repro.verify.compile` are the interval
semantics.  For every opcode compiler (each entry of
``compile._COMPILERS``, and the ``cmov`` family, which is matched by
prefix) a Hypothesis property draws input boxes whose endpoints mix
signed zeros, the smallest and largest denormals, the smallest normal,
the largest finite values, infinities, 1 +- 1 ULP and random values, in
widths from a point box to wide boxes.  It runs the emulator at points
inside each box, the endpoints among them, and checks each concrete
live-out against what the transfer computes for the whole box:

* an FP live-out lies in the output hull (so a NaN lies in none);
* a GP live-out equals the concrete pattern, or lies in the signed
  :class:`~repro.verify.interval.IntInterval`.

A deterministic grid does the same on every pair (every triple, for
three inputs) of boxes where the IEEE special cases meet (infinities,
signed zeros, the largest finite values, 2, [-1, 1], [0, inf]), at
every corner, so the cases a random draw rarely pairs up (``inf - inf``,
``0 * inf``, an overflowing FMA product, a zero of unknown sign) are
always run.

A transfer that raises :class:`IntervalUnsupported`, or leaves a
live-out TOP, claims nothing.  Two pins keep that from being vacuous:
register-only FP forms must not raise on finite point boxes whose
results are not NaN, and on point boxes a hull is no wider than the
rule's rounding (0 ULPs for moves, ``min``/``max`` and exact
conversions, 2 for one rounded operation, 6 for an FMA whose result is
at least as large as its product: the product's two-ULP hull and the
sum's rounding, where a result just below a power of two counts the
finer ULPs there; 1 * 0.75 + 1.6e-19 reads 4 and 8 * -4.000000000000001
+ 2.8e-15 reads 5).
"""

import functools
import itertools
import math
from typing import NamedTuple, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.x86.assembler import assemble
from repro.x86.locations import MemLoc, parse_loc
from repro.x86.memory import Memory, Segment
from repro.x86.operands import Mem, Reg32, Reg64
from repro.x86.registers import GP64_INDEX
from repro.x86.scalar import d2u, f2u, sint64, u2d, u2f
from repro.x86.testcase import TestCase, encode_for

from repro.core.runner import Runner
from repro.fp.ulp import ulp_distance, ulp_distance_single
from repro.verify.compile import _COMPILERS
from repro.verify.interval import (
    TOP,
    IntervalTransfer,
    IntervalUnsupported,
    IntInterval,
    TransferStats,
    _read_output,
)
from repro.verify.partition import index_of, value_of

INF = math.inf
BASE = 0x10000  # the data segment "buf"; rbx holds its address


def _f32(x) -> float:
    return float(np.float32(x))


_F64_SPECIALS = (
    0.0, -0.0, 5e-324, -5e-324,
    2.225073858507201e-308, -2.225073858507201e-308,  # largest denormal
    2.2250738585072014e-308, -2.2250738585072014e-308,  # smallest normal
    1.7976931348623157e308, -1.7976931348623157e308, INF, -INF,
    1.0, -1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
    -math.nextafter(1.0, 2.0), 0.5, 2.0, 3.0, 1e300, -1e-300,
)
_F32_SPECIALS = (
    0.0, -0.0, _f32(1.401298464324817e-45), _f32(-1.401298464324817e-45),
    _f32(1.1754942106924411e-38), _f32(-1.1754942106924411e-38),
    _f32(1.1754943508222875e-38), _f32(-1.1754943508222875e-38),
    _f32(3.4028234663852886e38), _f32(-3.4028234663852886e38), INF, -INF,
    1.0, -1.0, float(np.nextafter(np.float32(1), np.float32(0))),
    float(np.nextafter(np.float32(1), np.float32(2))), 0.5, 2.0, 3.0,
)
_ENDPOINTS = {
    "f64": st.one_of(st.sampled_from(_F64_SPECIALS),
                     st.floats(allow_nan=False)),
    "f32": st.one_of(st.sampled_from(_F32_SPECIALS),
                     st.floats(width=32, allow_nan=False)),
}
_IMM64 = st.one_of(
    st.sampled_from(tuple(d2u(x) for x in _F64_SPECIALS)
                    + (0x7FF8000000000000, 0xFFF0000000000001)),
    st.integers(0, (1 << 64) - 1))
_IMM32 = st.one_of(
    st.sampled_from(tuple(f2u(x) for x in _F32_SPECIALS) + (0x7FC00000,)),
    st.integers(0, (1 << 32) - 1))
_GP_VALUES = st.one_of(
    st.sampled_from((0, 1, 2, 7, 1023, (1 << 64) - 1, 1 << 63,
                     (1 << 63) - 1, 0xFFFFFFFF, 1 << 32,
                     0x3FF0000000000000, (1 << 64) - 1023)),
    st.integers(0, (1 << 64) - 1))
_CONDITIONS = ("a", "ae", "b", "be", "e", "ne", "g", "ge", "l", "le",
               "s", "ns")


class Family(NamedTuple):
    """One program shape: its text (with ``{imm64}``, ``{imm32}`` or
    ``{cc}`` drawn per example), its FP input locations, its live-outs,
    the GP registers given drawn concrete values, and the widest hull
    (in ULPs of the live-out) allowed on point boxes.  An FMA names the
    two inputs it multiplies: its width holds where the result is at
    least as large as the product (cancellation magnifies the product's
    rounding)."""

    name: str
    text: str
    inputs: Tuple[str, ...]
    live_outs: Tuple[str, ...]
    gp: Tuple[str, ...] = ()
    width: Optional[int] = None
    product: Tuple[int, ...] = ()


_S0_3 = ("xmm0:s0", "xmm0:s1", "xmm0:s2", "xmm0:s3")
_S1_0_3 = ("xmm1:s0", "xmm1:s1", "xmm1:s2", "xmm1:s3")
_PAIR = ("xmm0", "xmm0:hd")
_BUF_F32 = ("[buf+0]:f32", "[buf+4]:f32", "[buf+8]:f32", "[buf+12]:f32")
_ROUNDED = {"add": 2, "sub": 2, "mul": 2, "div": 2, "min": 0, "max": 0}


def _families():
    out = []
    add = lambda *args, **kw: out.append(Family(*args, **kw))  # noqa: E731
    for base, width in _ROUNDED.items():
        add(f"{base}sd", f"{base}sd xmm1, xmm0", ("xmm0", "xmm1"),
            ("xmm0",), width=width)
        add(f"{base}ss", f"{base}ss xmm1, xmm0", ("xmm0:s0", "xmm1:s0"),
            ("xmm0:s0",), width=width)
        add(f"v{base}sd", f"v{base}sd xmm1, xmm2, xmm0", ("xmm1", "xmm2"),
            ("xmm0",), width=width)
        if base not in ("min", "max"):
            add(f"v{base}ss", f"v{base}ss xmm1, xmm2, xmm0",
                ("xmm1:s0", "xmm2:s0"), ("xmm0:s0",), width=width)
            add(f"{base}pd", f"{base}pd xmm1, xmm0",
                _PAIR + ("xmm1", "xmm1:hd"), _PAIR, width=width)
            add(f"{base}ps", f"{base}ps xmm1, xmm0", _S0_3 + _S1_0_3,
                _S0_3, width=width)
    # AT&T (o1, o2, d) = (xmm1, xmm2, xmm0): 132 is d*o1 + o2, 213 is
    # o2*d + o1, 231 is o2*o1 + d.
    for order, product in (("132", (0, 1)), ("213", (2, 0)),
                           ("231", (2, 1))):
        add(f"vfmadd{order}sd", f"vfmadd{order}sd xmm1, xmm2, xmm0",
            ("xmm0", "xmm1", "xmm2"), ("xmm0",), width=6, product=product)
    add("sqrtsd", "sqrtsd xmm1, xmm0", ("xmm1",), ("xmm0",), width=2)
    add("sqrtss", "sqrtss xmm1, xmm0", ("xmm1:s0", "xmm0:s1"),
        ("xmm0:s0", "xmm0:s1"), width=2)
    # Every source reader once through a memory operand.
    add("addsd-mem", "addsd (rbx), xmm0", ("xmm0", "[buf+0]:f64"),
        ("xmm0",))
    add("mulss-mem", "mulss 4(rbx), xmm0", ("xmm0:s0", "[buf+4]:f32"),
        ("xmm0:s0",))
    add("subps-mem", "subps (rbx), xmm0", _S0_3 + _BUF_F32, _S0_3)
    add("divpd-mem", "divpd (rbx), xmm0",
        _PAIR + ("[buf+0]:f64", "[buf+8]:f64"), _PAIR)
    # Moves, loads and stores (stores through a memory live-out).
    add("movsd", "movsd xmm1, xmm0", ("xmm1", "xmm0:hd"), _PAIR, width=0)
    add("movsd-load", "movsd 8(rbx), xmm0", ("[buf+8]:f64",), _PAIR,
        width=0)
    add("movsd-store", "movsd xmm1, 8(rbx)", ("xmm1",), ("[buf+8]:f64",),
        width=0)
    add("movss", "movss xmm1, xmm0", ("xmm1:s0", "xmm0:s1"),
        ("xmm0:s0", "xmm0:s1"), width=0)
    add("movss-load", "movss 4(rbx), xmm0", ("[buf+4]:f32",),
        ("xmm0:s0", "xmm0:s1", "xmm0:hd"), width=0)
    add("movss-store", "movss xmm1, 4(rbx)", ("xmm1:s0",),
        ("[buf+4]:f32",), width=0)
    for op in ("movapd", "movaps", "movdqa", "movups", "movdqu"):
        add(op, f"{op} xmm1, xmm0", ("xmm1", "xmm1:hd"), _PAIR, width=0)
    add("movups-load", "movups (rbx), xmm0", _BUF_F32, _S0_3, width=0)
    add("lddqu", "lddqu (rbx), xmm0", _BUF_F32, _S0_3, width=0)
    add("movddup", "movddup xmm1, xmm0", ("xmm1",), _PAIR, width=0)
    add("movq-imm", "movq ${imm64}, xmm0", (), _PAIR, width=0)
    add("movq-load", "movq 16(rbx), xmm0", ("[buf+16]:f64",), _PAIR,
        width=0)
    add("movq-store", "movq xmm1, 16(rbx)", ("xmm1",), ("[buf+16]:f64",),
        width=0)
    add("movq-extract", "movq xmm0, rax", ("xmm0",), ("rax",))
    add("movq-inject", "movq rcx, xmm0", (), _PAIR, gp=("rcx",))
    add("movq-roundtrip", "movq xmm1, rcx\nmovq rcx, xmm0", ("xmm1",),
        _PAIR)
    add("movd-imm", "movd ${imm32}, xmm0", (), ("xmm0:s0", "xmm0:s1",
                                                 "xmm0:hd"), width=0)
    add("movd-gp", "movd ecx, xmm0", (), ("xmm0", "xmm0:hd"), gp=("rcx",))
    add("movd-widened", "cvttsd2si xmm1, rcx\nmovd ecx, xmm0", ("xmm1",),
        ("xmm0",))
    add("movabs", "movabs ${imm64}, rax", (), ("rax",))
    add("mov-imm32", "mov ${imm32}, eax", (), ("rax",), gp=("rax",))
    add("mov", "mov rcx, rax", (), ("rax",), gp=("rcx",))
    add("mov-widened", "cvttsd2si xmm0, rcx\nmov rcx, rax", ("xmm0",),
        ("rax",))
    add("mov32", "mov ecx, eax", (), ("rax",), gp=("rax", "rcx"))
    add("lea", "lea 8(rcx,rdx,4), rax", (), ("rax",), gp=("rcx", "rdx"))
    add("punpckldq", "punpckldq xmm1, xmm0",
        ("xmm0:s0", "xmm0:s1", "xmm1:s0", "xmm1:s1"), _S0_3, width=0)
    add("unpcklpd", "unpcklpd xmm1, xmm0", ("xmm0", "xmm1"), _PAIR,
        width=0)
    add("unpckhpd", "unpckhpd xmm1, xmm0", ("xmm0:hd", "xmm1:hd"), _PAIR,
        width=0)
    add("cvtss2sd", "cvtss2sd xmm1, xmm0", ("xmm1:s0",), ("xmm0",),
        width=0)
    add("cvtsd2ss", "cvtsd2ss xmm1, xmm0", ("xmm1",), ("xmm0:s0",),
        width=2)
    # GP steps: one operand from an FP box (a widened interval unless
    # the box truncates to one integer), one drawn.
    for op in ("add", "sub", "imul", "and", "or", "xor"):
        add(op, f"cvttsd2si xmm0, rax\n{op} rcx, rax", ("xmm0",),
            ("rax",), gp=("rcx",))
        add(f"{op}-widened", f"cvttsd2si xmm0, rax\ncvttsd2si xmm1, rcx\n"
            f"{op} rcx, rax", ("xmm0", "xmm1"), ("rax",))
        add(f"{op}32", f"{op} ecx, eax", (), ("rax",), gp=("rax", "rcx"))
    add("xor-zero", "xor rax, rax", (), ("rax",), gp=("rax",))
    add("and-imm", "movq xmm0, rax\nand $2047, rax", ("xmm0",), ("rax",))
    for op in ("shl", "shr", "sar"):
        add(op, f"cvttsd2si xmm0, rax\n{op} $3, rax", ("xmm0",), ("rax",))
        add(f"{op}32", f"{op} $3, eax", (), ("rax",), gp=("rax",))
    # The exponent-field extraction libimf's log runs.
    add("exponent-field", "movq xmm0, rax\nshr $52, rax\n"
        "and $2047, rax\nsub $1023, rax\ncvtsi2sd rax, xmm1",
        ("xmm0",), ("rax", "xmm1"))
    for op in ("xorpd", "xorps", "pxor"):
        add(op, f"{op} xmm0, xmm0", ("xmm0",), _PAIR, width=0)
    # Flags: decided or joined conditional moves.
    add("ucomisd-cmov", "ucomisd xmm1, xmm0\ncmov{cc} rcx, rax",
        ("xmm0", "xmm1"), ("rax",), gp=("rax", "rcx"))
    add("ucomiss-cmov", "ucomiss xmm1, xmm0\ncmov{cc} rcx, rax",
        ("xmm0:s0", "xmm1:s0"), ("rax",), gp=("rax", "rcx"))
    add("ucomisd-cmov32", "ucomisd xmm1, xmm0\ncmov{cc} ecx, eax",
        ("xmm0", "xmm1"), ("rax",), gp=("rax", "rcx"))
    add("ucomisd-cmov-widened", "cvttsd2si xmm2, rcx\n"
        "ucomisd xmm1, xmm0\ncmov{cc} rcx, rax", ("xmm0", "xmm1", "xmm2"),
        ("rax",), gp=("rax",))
    add("cmp-cmov", "cmp rdx, rcx\ncmov{cc} rdx, rax", (), ("rax",),
        gp=("rax", "rcx", "rdx"))
    add("test-cmov", "test rcx, rcx\ncmov{cc} rdx, rax", (), ("rax",),
        gp=("rax", "rcx", "rdx"))
    for op in ("cvtsd2si", "cvttsd2si"):
        add(op, f"{op} xmm0, rax", ("xmm0",), ("rax",))
    add("cvtsi2sd", "cvtsi2sd rcx, xmm0", (), _PAIR, gp=("rcx",), width=0)
    add("cvtsi2sd32", "cvtsi2sd ecx, xmm0", (), _PAIR, gp=("rcx",),
        width=0)
    add("cvtsi2sd-widened", "cvttsd2si xmm1, rcx\ncvtsi2sd rcx, xmm0",
        ("xmm1",), ("xmm0",))
    return out


FAMILIES = _families()


def _opcodes(family):
    return {line.split()[0] for line in family.text.splitlines()}


def test_every_compiler_is_covered():
    covered = set().union(*(_opcodes(f) for f in FAMILIES))
    assert set(_COMPILERS) <= covered
    assert any(f.text.count("cmov{cc}") for f in FAMILIES)
    names = {f.name for f in FAMILIES}
    # _f64_reader, _f32_reader, _lanes_reader and _halves_reader through
    # memory, and the three store forms.
    assert {"addsd-mem", "mulss-mem", "subps-mem", "divpd-mem"} <= names
    assert {"movsd-store", "movss-store", "movq-store"} <= names


@functools.lru_cache(maxsize=None)
def _compiled(text: str, live_outs: Tuple[str, ...]):
    program = assemble(text + "\n")
    runner = Runner(live_outs, backend="emulator")
    register_form = all(
        not isinstance(op, (Mem, Reg32, Reg64))
        for instr in program.slots for op in instr.operands)
    return program, runner, runner.prepare(program), register_form


@st.composite
def _interval(draw, ftype):
    a = draw(_ENDPOINTS[ftype])
    shape = draw(st.sampled_from(("point", "near", "wide")))
    if shape == "point":
        b = a
    elif shape == "near":
        top = index_of(INF, ftype)
        k = index_of(a, ftype) + draw(st.integers(-8, 8))
        b = value_of(min(max(k, -top), top), ftype)
    else:
        b = draw(_ENDPOINTS[ftype])
    return (a, b) if a <= b else (b, a)


def _abstract(state, loc):
    """The transfer's claim about one live-out, or TOP for none."""
    if isinstance(loc, MemLoc) or loc.reg not in GP64_INDEX:
        try:
            return _read_output(state, loc)
        except IntervalUnsupported:  # a NaN constant read back
            return TOP
    return state.gp[GP64_INDEX[loc.reg]]


def _holds(loc, claim, bits) -> bool:
    if isinstance(claim, IntInterval):
        return claim.lo <= sint64(bits) <= claim.hi
    if isinstance(claim, int):
        return claim == bits
    x = u2f(bits) if loc.ftype == "f32" else u2d(bits)
    return claim.lo <= x <= claim.hi


def _width(loc, claim) -> int:
    dist = ulp_distance_single if loc.ftype == "f32" else ulp_distance
    return dist(claim.lo, claim.hi)


def _is_fp(loc) -> bool:
    return loc.ftype in ("f64", "f32")


def _check(family, text, box, gp, points):
    """Run ``text`` on the emulator at ``points`` and the transfer over
    ``box`` (one (lo, hi) per input), with GP registers ``gp``; assert
    every concrete live-out lies in the transfer's claim, and the two
    pins on finite point boxes."""
    program, runner, prepared, register_form = _compiled(text,
                                                          family.live_outs)
    inputs = [parse_loc(name) for name in family.inputs]
    gp = dict(gp)
    segments = ()
    if "(rbx" in text:
        gp["rbx"] = BASE
        segments = (Segment("buf", BASE, bytes(32)),)
    tests = []
    for point in points:
        values = {loc: encode_for(loc, x) for loc, x in zip(inputs, point)}
        values.update({parse_loc(name): v for name, v in gp.items()})
        tests.append(TestCase(values, segments))

    transfer = IntervalTransfer(
        program, program, ["xmm0"], dict(zip(family.inputs, box)),
        memory=Memory([seg.copy() for seg in segments]),
        concrete_gp={GP64_INDEX[name]: v for name, v in gp.items()})
    try:
        state = transfer._fresh_state(*transfer._inputs_of(box),
                                      TransferStats())
        for step in transfer._plans[0].steps:
            step(state)
    except IntervalUnsupported:
        state = None

    locs = runner.live_outs
    results = runner.run_batch(prepared, tests)
    for point, (values, signal) in zip(points, results):
        assert signal is None, (text, point)
        if state is None:
            continue
        for loc, bits in zip(locs, values):
            claim = _abstract(state, loc)
            if claim is TOP:
                continue
            assert _holds(loc, claim, bits), \
                (text, box, gp, point, str(loc), claim, hex(bits))

    finite_point = all(lo == hi and math.isfinite(lo) for lo, hi in box)
    if not finite_point:
        return
    concrete = [u2f(bits) if loc.ftype == "f32" else u2d(bits)
                for loc, bits in zip(locs, results[0][0]) if _is_fp(loc)]
    if register_form and all(_is_fp(loc) for loc in locs) \
            and not any(math.isnan(x) for x in concrete):
        assert state is not None, (text, box)
    if family.width is None or state is None:
        return
    for loc, bits in zip(locs, results[0][0]):
        claim = _abstract(state, loc)
        x = u2f(bits) if loc.ftype == "f32" else u2d(bits)
        if claim is TOP or not math.isfinite(x) \
                or not (math.isfinite(claim.lo) and math.isfinite(claim.hi)):
            continue
        if family.product:
            i, j = family.product
            if abs(x) < abs(box[i][0] * box[j][0]):
                continue
        assert _width(loc, claim) <= family.width, (text, box, str(loc),
                                                    claim)


@pytest.mark.parametrize("family", FAMILIES, ids=[f.name for f in FAMILIES])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_concrete_results_lie_in_the_transfer(family, data):
    text = family.text.format(
        imm64=f"0x{data.draw(_IMM64, label='imm64'):x}"
        if "{imm64}" in family.text else "",
        imm32=f"0x{data.draw(_IMM32, label='imm32'):x}"
        if "{imm32}" in family.text else "",
        cc=data.draw(st.sampled_from(_CONDITIONS), label="cc")
        if "{cc}" in family.text else "")
    inputs = [parse_loc(name) for name in family.inputs]
    box = [data.draw(_interval(loc.ftype), label=str(loc))
           for loc in inputs]
    gp = {name: data.draw(_GP_VALUES, label=name) for name in family.gp}
    # Points: the box's two corners, then random points inside it.
    points = [[lo for lo, _ in box], [hi for _, hi in box]]
    rng = data.draw(st.randoms(use_true_random=False), label="points")
    for _ in range(4):
        points.append([
            value_of(rng.randint(*sorted((index_of(lo, loc.ftype),
                                          index_of(hi, loc.ftype)))),
                     loc.ftype)
            for loc, (lo, hi) in zip(inputs, box)])
    _check(family, text, box, gp, points)


# Boxes where the IEEE special cases meet: every pair (every triple for
# three inputs) of these, at every corner, for the families with no
# drawn text or GP values.
_MAX64 = 1.7976931348623157e308
_MAX32 = _f32(3.4028234663852886e38)
_SPECIAL_BOXES = {
    ftype: ((-INF, -INF), (INF, INF), (0.0, 0.0), (-0.0, 0.0), (-INF, INF),
            (0.0, INF), (-1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (top, top),
            (-top, -top))
    for ftype, top in (("f64", _MAX64), ("f32", _MAX32))
}
_GRID_FAMILIES = [f for f in FAMILIES
                  if f.inputs and not f.gp and "{" not in f.text]


@pytest.mark.parametrize("family", _GRID_FAMILIES,
                         ids=[f.name for f in _GRID_FAMILIES])
def test_special_boxes(family):
    _check_special_boxes(family)


_F32_GRID_FAMILIES = [f for f in _GRID_FAMILIES
                      if any(parse_loc(name).ftype == "f32"
                             for name in f.inputs + f.live_outs)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family", _F32_GRID_FAMILIES,
                         ids=[f.name for f in _F32_GRID_FAMILIES])
def test_f32_rounding_does_not_warn(family):
    # An f32 endpoint past FLT_MAX rounds to +-inf; numpy's overflow
    # warnings for it (in the float32 cast and in nextafter) stay off.
    _check_special_boxes(family)


def _check_special_boxes(family):
    inputs = [parse_loc(name) for name in family.inputs]
    # Up to three inputs vary independently; wider families split their
    # inputs into two halves that take the same box each.
    groups = ([[k] for k in range(len(inputs))] if len(inputs) <= 3
              else [list(range(len(inputs) // 2)),
                    list(range(len(inputs) // 2, len(inputs)))])
    count = len(_SPECIAL_BOXES["f64"])
    for choice in itertools.product(range(count), repeat=len(groups)):
        box = [None] * len(inputs)
        for group, i in zip(groups, choice):
            for k in group:
                box[k] = _SPECIAL_BOXES[inputs[k].ftype][i]
        points = []
        for corner in itertools.product((0, 1), repeat=len(groups)):
            point = [None] * len(inputs)
            for group, end in zip(groups, corner):
                for k in group:
                    point[k] = box[k][end]
            points.append(point)
        _check(family, family.text, box, {}, points)
