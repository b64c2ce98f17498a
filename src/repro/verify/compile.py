"""The interval transfer, compiled once per program.

:func:`compile_transfer` lowers a :class:`~repro.x86.program.Program`
into a list of per-instruction *transfer closures* — the abstract-domain
analogue of :mod:`repro.x86.vector`'s vectorize-once design.  Operand
shapes are resolved and immediates decoded exactly once per program, so
analyzing a box is a plain loop over prebound closures instead of an
opcode/isinstance dispatch per instruction per box.

Each compiled step also records which *dimension storage keys* it can
read or write: ``XMM_KEYS[i]`` for XMM register ``i`` and the coarse
``MEM_KEY`` for any data-memory access (both defined in
:mod:`repro.verify.interval`).  :meth:`TransferPlan.first_touch`
turns those sets into the index of the first step whose behaviour can
depend on a given input dimension, which is what lets the two children
of a branch-and-bound split share the parent's abstract state up to
that step (see :meth:`repro.verify.interval.IntervalTransfer.
analyze_split`).  Dependence can only *originate* at a step that
directly accesses the dimension's register or memory: GP registers
start concrete-or-TOP, so a GP-only instruction before the first direct
access is necessarily dimension-independent.  Writes count as touches
too — a clobber of the dimension's register must invalidate the shared
prefix, otherwise re-applying the right child's input after the
snapshot would resurrect a dead input.

The closures are the interval semantics: one compiler per opcode, and
an opcode with no compiler compiles to a step that raises
:class:`~repro.verify.interval.IntervalUnsupported` (the canonical
"outside the interval-analyzable fragment" message), so every step has
a concrete touch set.  Operand shapes a compiler cannot analyze become
closures that raise at *run* time, so a box fails at the step that
reaches them.  ``tests/verify/test_transfer_soundness.py`` holds every
compiler to the emulator: on random boxes, each concrete result lies
in the transfer's output hull.

The steps that make up most of the libimf kernels — ``movq $imm, xmm``,
register ``movsd``/``movapd``-family copies and register
``addsd``/``subsd``/``mulsd``/``divsd`` — also get a *lane form*, defined
next to the closure it mirrors: the same step over a batch of boxes
held as float64 columns (:class:`repro.verify.interval._LaneMachine`).
Every other step runs its closure lane by lane, so the closures remain
the semantics and the per-lane fallback at once.
``tests/verify/test_transfer_lanes.py`` pins lanes to closures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.x86.operands import Imm, Mem, Reg32, Reg64, Xmm
from repro.x86.program import Program
from repro.x86.scalar import cvtsi2sd32, cvtsi2sd64, u2d, u2f

from repro.verify.interval import (
    _ARITH_D,
    _ARITH_F,
    _Half,
    _IntervalState,
    _LaneArith,
    _LaneMachine,
    IntInterval,
    IntervalD,
    IntervalUnsupported,
    M32,
    M64,
    MEM_KEY,
    TOP,
    XMM_KEYS,
    _down,
    _down32,
    _exec_cmov,
    _exec_int_binop,
    _exec_shift,
    _half_of_pattern,
    _pattern_of_half,
    _rounded_int,
    _round_half_even,
    _up,
    _up32,
)

# A transfer step mutates the abstract state in place.
Step = Callable[[_IntervalState], None]
# A lane form runs the same step over a _LaneMachine; False means "run
# the closure instead".
LaneStep = Callable[[_LaneMachine], bool]

_NO_TOUCH: FrozenSet = frozenset()

# Shared immutable constants (states never mutate _Half objects).
_ZERO_BITS = _Half.bits(0)
_POINT_ZERO_F32 = IntervalD.point(0.0)


@dataclass
class TransferPlan:
    """A program compiled to transfer closures plus dependence metadata.

    ``touches[i]`` is the set of dimension storage keys step ``i`` may
    read or write (empty for a step that only raises).  ``lanes[i]`` is
    step ``i``'s lane form, or ``None`` when it has none: the same step
    over a :class:`~repro.verify.interval._LaneMachine`, returning False
    when an operand is not held in columns (the step then runs as
    closures).
    ``histogram`` counts compiled steps per opcode (``nop`` slots are
    dropped at compile time).
    """

    steps: List[Step] = field(default_factory=list)
    opcodes: List[str] = field(default_factory=list)
    touches: List[FrozenSet] = field(default_factory=list)
    lanes: List[Optional[LaneStep]] = field(default_factory=list)
    histogram: Dict[str, int] = field(default_factory=dict)

    def first_touch(self, key) -> int:
        """Index of the first step that may depend on ``key``.

        ``len(steps)`` means no step touches it (the shared prefix is
        the whole program; live-out reads happen after every step and
        are handled by the caller re-applying the dimension's input to
        the restored state).
        """
        for i, touch in enumerate(self.touches):
            if key in touch:
                return i
        return len(self.steps)


def compile_transfer(program: Program, profile: bool = False) -> TransferPlan:
    plan = TransferPlan()
    for instr in program.slots:
        if instr.opcode == "nop":
            continue
        fn, touch, *lanes = _compile_instr(instr)
        if profile:
            fn = _profiled(instr.opcode, fn)
        plan.steps.append(fn)
        plan.opcodes.append(instr.opcode)
        plan.touches.append(touch)
        plan.lanes.append(lanes[0] if lanes else None)
        plan.histogram[instr.opcode] = plan.histogram.get(instr.opcode, 0) + 1
    return plan


def _profiled(opcode: str, fn: Step) -> Step:
    timer = time.perf_counter

    def step(state: _IntervalState) -> None:
        t0 = timer()
        try:
            fn(state)
        finally:
            seconds = state.stats.op_seconds
            seconds[opcode] = seconds.get(opcode, 0.0) + (timer() - t0)

    return step


def _raising(message: str) -> Step:
    def step(state: _IntervalState) -> None:
        raise IntervalUnsupported(message)

    return step


# --------------------------------------------------------------------------
# Source-operand readers: resolve the operand shape once, return a
# closure plus the dimension keys it touches.


def _f64_reader(operand):
    if isinstance(operand, Xmm):
        index = operand.index

        def read(state):
            return state.xmm[index][0].as_f64()

        return read, frozenset({XMM_KEYS[index]})
    if isinstance(operand, Mem):

        def read(state, m=operand):
            return state.load_f64(state.addr(m))

        return read, frozenset({MEM_KEY})
    if isinstance(operand, Imm):
        x = u2d(operand.value)
        if math.isnan(x):
            def read(state):
                raise IntervalUnsupported("NaN immediate")

            return read, _NO_TOUCH
        interval = IntervalD.point(x)
        return (lambda state: interval), _NO_TOUCH

    def read(state, op=operand):
        raise IntervalUnsupported(f"f64 source {op!r}")

    return read, _NO_TOUCH


def _f32_reader(operand):
    if isinstance(operand, Xmm):
        index = operand.index

        def read(state):
            return state.xmm[index][0].lane(0)

        return read, frozenset({XMM_KEYS[index]})
    if isinstance(operand, Mem):

        def read(state, m=operand):
            return state.load_f32(state.addr(m))

        return read, frozenset({MEM_KEY})
    if isinstance(operand, Imm):
        x = u2f(operand.value)
        if math.isnan(x):
            def read(state):
                raise IntervalUnsupported("NaN immediate")

            return read, _NO_TOUCH
        interval = IntervalD.point(x)
        return (lambda state: interval), _NO_TOUCH

    def read(state, op=operand):
        raise IntervalUnsupported(f"f32 source {op!r}")

    return read, _NO_TOUCH


def _lanes_reader(operand):
    """Four float32 lanes of a 128-bit source."""
    if isinstance(operand, Xmm):
        index = operand.index

        def read(state):
            halves = state.xmm[index]
            return [halves[0].lane(0), halves[0].lane(1),
                    halves[1].lane(0), halves[1].lane(1)]

        return read, frozenset({XMM_KEYS[index]})
    if isinstance(operand, Mem):

        def read(state, m=operand):
            addr = state.addr(m)
            return [state.load_f32(addr + 4 * lane) for lane in range(4)]

        return read, frozenset({MEM_KEY})

    def read(state, op=operand):
        raise IntervalUnsupported(f"128-bit source {op!r}")

    return read, _NO_TOUCH


def _halves_reader(operand):
    if isinstance(operand, Xmm):
        index = operand.index

        def read(state):
            return [h.as_f64() for h in state.xmm[index]]

        return read, frozenset({XMM_KEYS[index]})
    if isinstance(operand, Mem):

        def read(state, m=operand):
            addr = state.addr(m)
            return [state.load_f64(addr), state.load_f64(addr + 8)]

        return read, frozenset({MEM_KEY})

    def read(state, op=operand):
        raise IntervalUnsupported(f"128-bit source {op!r}")

    return read, _NO_TOUCH


# --------------------------------------------------------------------------
# Per-opcode compilers

_SD = {"addsd": "add", "subsd": "sub", "mulsd": "mul", "divsd": "div",
       "minsd": "min", "maxsd": "max"}
_SS = {"addss": "add", "subss": "sub", "mulss": "mul", "divss": "div",
       "minss": "min", "maxss": "max"}
_AVX_SD = {"vaddsd": "add", "vsubsd": "sub", "vmulsd": "mul",
           "vdivsd": "div", "vminsd": "min", "vmaxsd": "max"}
_AVX_SS = {"vaddss": "add", "vsubss": "sub", "vmulss": "mul",
           "vdivss": "div"}
_PD = {"addpd": "add", "subpd": "sub", "mulpd": "mul", "divpd": "div"}
_PS = {"addps": "add", "subps": "sub", "mulps": "mul", "divps": "div"}
_FMA = {"vfmadd132sd": "132", "vfmadd213sd": "213", "vfmadd231sd": "231"}


def _compile_sd(instr):
    arith = getattr(_ARITH_D, _SD[instr.opcode])
    read, touch = _f64_reader(instr.operands[0])
    di = instr.operands[1].index

    def step(state):
        src = read(state)
        dst = state.xmm[di]
        a = dst[0].as_f64()
        dst[0] = _Half(
            "f64", TOP if (a is TOP or src is TOP) else arith(a, src))

    rule = getattr(_LaneArith, _SD[instr.opcode], None)
    return (step, touch | {XMM_KEYS[di]},
            _sd_lanes(rule, instr.operands[0], di))


def _sd_lanes(rule, src, di):
    """Lane form of a double arithmetic step from a register (None for
    any other step; the ISA gives these opcodes no immediate form)."""
    if rule is None or not isinstance(src, Xmm):
        return None
    si = src.index

    def lanes(m):
        b = m.low(si)
        a = None if b is None else m.low(di)
        if a is None:
            return False
        lo, hi = rule(m, a.lo, a.hi, b.lo, b.hi)
        m.put(di, lo, hi, None, a.high)
        return True

    return lanes


def _compile_sqrtsd(instr):
    read, touch = _f64_reader(instr.operands[0])
    di = instr.operands[1].index
    sqrt = _ARITH_D.sqrt

    def step(state):
        src = read(state)
        state.xmm[di][0] = _Half("f64", TOP if src is TOP else sqrt(src))

    return step, touch | {XMM_KEYS[di]}


def _compile_ss(instr):
    arith = getattr(_ARITH_F, _SS[instr.opcode])
    read, touch = _f32_reader(instr.operands[0])
    di = instr.operands[1].index

    def step(state):
        src = read(state)
        dst = state.xmm[di]
        a = dst[0].lane(0)
        result = TOP if (a is TOP or src is TOP) else arith(a, src)
        dst[0] = dst[0].with_lane(0, result)

    return step, touch | {XMM_KEYS[di]}


def _compile_sqrtss(instr):
    read, touch = _f32_reader(instr.operands[0])
    di = instr.operands[1].index
    sqrt = _ARITH_F.sqrt

    def step(state):
        src = read(state)
        value = TOP if src is TOP else sqrt(src)
        dst = state.xmm[di]
        dst[0] = dst[0].with_lane(0, value)

    return step, touch | {XMM_KEYS[di]}


def _compile_avx_sd(instr):
    arith = getattr(_ARITH_D, _AVX_SD[instr.opcode])
    read, touch = _f64_reader(instr.operands[0])
    si = instr.operands[1].index
    di = instr.operands[2].index

    def step(state):
        s1 = read(state)
        s2 = state.xmm[si]
        a = s2[0].as_f64()
        result = TOP if (a is TOP or s1 is TOP) else arith(a, s1)
        state.xmm[di] = [_Half("f64", result), s2[1]]

    return step, touch | {XMM_KEYS[si], XMM_KEYS[di]}


def _compile_avx_ss(instr):
    arith = getattr(_ARITH_F, _AVX_SS[instr.opcode])
    read, touch = _f32_reader(instr.operands[0])
    si = instr.operands[1].index
    di = instr.operands[2].index

    def step(state):
        s1 = read(state)
        s2 = state.xmm[si]
        a = s2[0].lane(0)
        result = TOP if (a is TOP or s1 is TOP) else arith(a, s1)
        state.xmm[di] = [s2[0].with_lane(0, result), s2[1]]

    return step, touch | {XMM_KEYS[si], XMM_KEYS[di]}


def _compile_pd(instr):
    arith = getattr(_ARITH_D, _PD[instr.opcode])
    read, touch = _halves_reader(instr.operands[0])
    di = instr.operands[1].index

    def step(state):
        src = read(state)
        dst = state.xmm[di]
        for half in (0, 1):
            a = dst[half].as_f64()
            b = src[half]
            dst[half] = _Half(
                "f64", TOP if (a is TOP or b is TOP) else arith(a, b))

    return step, touch | {XMM_KEYS[di]}


def _compile_ps(instr):
    arith = getattr(_ARITH_F, _PS[instr.opcode])
    read, touch = _lanes_reader(instr.operands[0])
    di = instr.operands[1].index

    def step(state):
        src = read(state)
        dst = state.xmm[di]
        lanes = [dst[0].lane(0), dst[0].lane(1), dst[1].lane(0),
                 dst[1].lane(1)]
        out = [TOP if (lanes[j] is TOP or src[j] is TOP)
               else arith(lanes[j], src[j]) for j in range(4)]
        dst[0] = _Half("f32pair", (out[0], out[1]))
        dst[1] = _Half("f32pair", (out[2], out[3]))

    return step, touch | {XMM_KEYS[di]}


_MAX_FINITE = 1.7976931348623157e308
_OVERFLOW_UP = IntervalD(_MAX_FINITE, math.inf)
_OVERFLOW_DOWN = IntervalD(-math.inf, -_MAX_FINITE)


def _exact_product(p: IntervalD) -> IntervalD:
    """Bounds on the exact product behind a rounded product ``p``.

    Outward rounding bounds the exact product, except where it
    overflowed: a product at +inf may be a finite real above
    ``_MAX_FINITE``, which the fused add can bring back into range.
    """
    if p.lo == math.inf:
        return _OVERFLOW_UP
    if p.hi == -math.inf:
        return _OVERFLOW_DOWN
    return p


def _compile_fma(instr):
    order = _FMA[instr.opcode]
    read, touch = _f64_reader(instr.operands[0])
    si = instr.operands[1].index
    di = instr.operands[2].index

    def mul(a, b):
        return _exact_product(_ARITH_D.mul(a, b))

    add = _ARITH_D.add

    def step(state):
        o1 = read(state)
        o2 = state.xmm[si][0].as_f64()
        dst = state.xmm[di]
        d = dst[0].as_f64()
        if order == "132":
            prod = TOP if (d is TOP or o1 is TOP) else mul(d, o1)
            addend = o2
        elif order == "213":
            prod = TOP if (o2 is TOP or d is TOP) else mul(o2, d)
            addend = o1
        else:
            prod = TOP if (o2 is TOP or o1 is TOP) else mul(o2, o1)
            addend = d
        # Rounding the exact product's bounds once more, in the add, is
        # outward of the fused result's single rounding.
        dst[0] = _Half(
            "f64",
            TOP if (prod is TOP or addend is TOP) else add(prod, addend))

    return step, touch | {XMM_KEYS[si], XMM_KEYS[di]}


def _compile_movsd(instr):
    src, dst = instr.operands
    if isinstance(dst, Mem):
        si = src.index

        def step(state, m=dst):
            value = state.xmm[si][0].as_f64()
            state.mem_stores[state.addr(m)] = ("f64", value)

        return step, frozenset({XMM_KEYS[si], MEM_KEY})
    if isinstance(src, Mem):
        di = dst.index

        def step(state, m=src):
            state.xmm[di] = [state.load_half64(state.addr(m)), _ZERO_BITS]

        return step, frozenset({MEM_KEY, XMM_KEYS[di]})
    si = src.index
    di = dst.index

    def step(state):
        state.xmm[di][0] = state.xmm[si][0]

    def lanes(m):
        s = m.low(si)
        if s is None:
            return False
        m.put(di, s.lo, s.hi, s.bits, m.high(di))
        return True

    return step, frozenset({XMM_KEYS[si], XMM_KEYS[di]}), lanes


def _compile_movss(instr):
    src, dst = instr.operands
    if isinstance(dst, Mem):
        si = src.index

        def step(state, m=dst):
            value = state.xmm[si][0].lane(0)
            state.mem_stores[state.addr(m)] = ("f32", value)

        return step, frozenset({XMM_KEYS[si], MEM_KEY})
    if isinstance(src, Mem):
        di = dst.index

        def step(state, m=src):
            value = state.load_f32(state.addr(m))
            state.xmm[di] = [_Half("f32pair", (value, _POINT_ZERO_F32)),
                             _ZERO_BITS]

        return step, frozenset({MEM_KEY, XMM_KEYS[di]})
    si = src.index
    di = dst.index

    def step(state):
        value = state.xmm[si][0].lane(0)
        state.xmm[di][0] = state.xmm[di][0].with_lane(0, value)

    return step, frozenset({XMM_KEYS[si], XMM_KEYS[di]})


def _compile_mov128(instr):
    src, dst = instr.operands
    if isinstance(dst, Mem):
        return _raising("128-bit store"), _NO_TOUCH
    if isinstance(src, Mem):
        read, touch = _lanes_reader(src)
        di = dst.index

        def step(state):
            lanes = read(state)
            state.xmm[di] = [_Half("f32pair", (lanes[0], lanes[1])),
                             _Half("f32pair", (lanes[2], lanes[3]))]

        return step, touch | {XMM_KEYS[di]}
    si = src.index
    di = dst.index

    def step(state):
        s = state.xmm[si]
        state.xmm[di] = [s[0], s[1]]

    def lanes(m):
        s = m.low(si)
        if s is None:
            return False
        m.put(di, s.lo, s.hi, s.bits, s.high)
        return True

    return step, frozenset({XMM_KEYS[si], XMM_KEYS[di]}), lanes


def _compile_movddup(instr):
    read, touch = _f64_reader(instr.operands[0])
    di = instr.operands[1].index

    def step(state):
        src = read(state)
        state.xmm[di] = [_Half("f64", src), _Half("f64", src)]

    return step, touch | {XMM_KEYS[di]}


def _compile_movq(instr):
    src, dst = instr.operands
    if isinstance(dst, Xmm) and isinstance(src, Imm):
        half = _Half.bits(src.value)
        di = dst.index

        def step(state):
            state.xmm[di] = [half, _ZERO_BITS]

        x = u2d(half.value)
        if math.isnan(x):
            # A NaN pattern stays in the lane states; reading it raises.
            return step, frozenset({XMM_KEYS[di]})

        def lanes(m):
            m.put_bits(di, x, _ZERO_BITS)
            return True

        return step, frozenset({XMM_KEYS[di]}), lanes
    if isinstance(dst, Xmm) and isinstance(src, Mem):
        di = dst.index

        def step(state, m=src):
            state.xmm[di] = [state.load_half64(state.addr(m)), _ZERO_BITS]

        return step, frozenset({MEM_KEY, XMM_KEYS[di]})
    if isinstance(dst, Mem) and isinstance(src, Xmm):
        si = src.index

        def step(state, m=dst):
            value = state.xmm[si][0].as_f64()
            state.mem_stores[state.addr(m)] = ("f64", value)

        return step, frozenset({XMM_KEYS[si], MEM_KEY})
    if isinstance(dst, Reg64) and isinstance(src, Xmm):
        si = src.index

        def step(state, d=dst):
            # Bit extraction: reinterpret the low double's bit pattern.
            state.set_gp(d, _pattern_of_half(state, state.xmm[si][0]))

        return step, frozenset({XMM_KEYS[si]})
    if isinstance(dst, Xmm) and isinstance(src, (Reg64, Reg32)):
        di = dst.index

        def step(state, s=src):
            # Bit injection: reinterpret a GP pattern as the low double.
            state.xmm[di] = [
                _half_of_pattern(state, state.gp_operand(s)),
                _ZERO_BITS,
            ]

        return step, frozenset({XMM_KEYS[di]})
    return _raising("movq form outside the FP fragment"), _NO_TOUCH


def _compile_movd(instr):
    src, dst = instr.operands
    if isinstance(dst, Xmm):
        di = dst.index
        if isinstance(src, Imm):
            half = _Half.bits(src.value & 0xFFFFFFFF)

            def step(state):
                state.xmm[di] = [half, _ZERO_BITS]

            return step, frozenset({XMM_KEYS[di]})
        if isinstance(src, (Reg32, Reg64)):
            si = src.index

            def step(state):
                value = state.gp[si]
                if not isinstance(value, int):
                    raise IntervalUnsupported("movd from symbolic register")
                bits = value & 0xFFFFFFFF
                state.xmm[di] = [_Half.bits(bits), _ZERO_BITS]

            return step, frozenset({XMM_KEYS[di]})
        return _raising("movd from memory"), _NO_TOUCH
    return _raising("movd to GP register"), _NO_TOUCH


def _compile_mov_gp(instr):
    src, dst = instr.operands
    if isinstance(dst, (Reg64, Reg32)) and isinstance(src, Imm):
        mask = M64 if isinstance(dst, Reg64) else M32
        value = src.value & mask
        di = dst.index

        def step(state):
            state.gp[di] = value

        return step, _NO_TOUCH
    if isinstance(dst, (Reg64, Reg32)) and isinstance(src, (Reg64, Reg32)):

        def step(state, s=src, d=dst):
            state.set_gp(d, state.gp_operand(s))

        return step, _NO_TOUCH
    return _raising("mov form outside the FP fragment"), _NO_TOUCH


def _compile_lea(instr):
    m = instr.operands[0]
    di = instr.operands[1].index

    def step(state):
        # Address arithmetic over GP registers only; no memory access.
        state.gp[di] = state.addr(m)

    return step, _NO_TOUCH


def _compile_punpckldq(instr):
    src, dst = instr.operands
    read, touch = _lanes_reader(src)
    di = dst.index

    def step(state):
        s = read(state)
        d = state.xmm[di]
        d0, d1 = d[0].lane(0), d[0].lane(1)
        state.xmm[di] = [_Half("f32pair", (d0, s[0])),
                         _Half("f32pair", (d1, s[1]))]

    return step, touch | {XMM_KEYS[di]}


def _compile_unpcklpd(instr):
    src, dst = instr.operands
    read, touch = _f64_reader(src)
    di = dst.index

    def step(state):
        lo = read(state)
        state.xmm[di][1] = _Half("f64", lo)

    return step, touch | {XMM_KEYS[di]}


def _compile_unpckhpd(instr):
    src, dst = instr.operands
    read, touch = _halves_reader(src)
    di = dst.index

    def step(state):
        halves = read(state)
        d = state.xmm[di]
        state.xmm[di] = [_Half("f64", d[1].as_f64()),
                         _Half("f64", halves[1])]

    return step, touch | {XMM_KEYS[di]}


def _compile_cvtss2sd(instr):
    read, touch = _f32_reader(instr.operands[0])
    di = instr.operands[1].index

    def step(state):
        src = read(state)
        state.xmm[di][0] = _Half("f64", src)

    return step, touch | {XMM_KEYS[di]}


def _compile_cvtsd2ss(instr):
    read, touch = _f64_reader(instr.operands[0])
    di = instr.operands[1].index

    def step(state):
        src = read(state)
        if src is TOP:
            value = TOP
        else:
            value = IntervalD(_down32(src.lo), _up32(src.hi))
        dst = state.xmm[di]
        dst[0] = dst[0].with_lane(0, value)

    return step, touch | {XMM_KEYS[di]}


def _compile_int_binop(instr):
    name = instr.opcode
    ops = instr.operands

    def step(state):
        _exec_int_binop(state, name, ops)

    return step, _NO_TOUCH


def _compile_shift(instr):
    name = instr.opcode
    ops = instr.operands

    def step(state):
        _exec_shift(state, name, ops)

    return step, _NO_TOUCH


def _compile_xor128(instr):
    src, dst = instr.operands
    if isinstance(src, Xmm) and src.index == dst.index:
        di = dst.index

        def step(state):
            state.xmm[di] = [_ZERO_BITS, _ZERO_BITS]

        return step, frozenset({XMM_KEYS[di]})
    return _raising(f"{instr.opcode} outside the zeroing idiom"), _NO_TOUCH


def _compile_ucomi(instr):
    src_op, dst_op = instr.operands
    di = dst_op.index
    if instr.opcode == "ucomisd":
        read, touch = _f64_reader(src_op)

        def step(state):
            src = read(state)
            dst = state.xmm[di][0].as_f64()
            state.cmp = (dst, src)

    else:
        read, touch = _f32_reader(src_op)

        def step(state):
            src = read(state)
            dst = state.xmm[di][0].lane(0)
            state.cmp = (dst, src)

    return step, touch | {XMM_KEYS[di]}


def _compile_cmp(instr):
    def step(state):
        # GP flags: unknown to this domain; cmovs after this must join.
        state.cmp = None

    return step, _NO_TOUCH


def _compile_cmov(instr):
    cc = instr.opcode[4:]
    ops = instr.operands

    def step(state):
        _exec_cmov(state, cc, ops)

    return step, _NO_TOUCH


def _compile_cvtsd2si(instr):
    name = instr.opcode
    src_op, dst_op = instr.operands
    if not isinstance(dst_op, Reg64):
        return _raising(f"32-bit {name} destination"), _NO_TOUCH
    read, touch = _f64_reader(src_op)
    rounder = _round_half_even if name == "cvtsd2si" else math.trunc
    di = dst_op.index

    def step(state):
        src = read(state)
        if src is TOP:
            state.gp[di] = TOP
            return
        lo = _rounded_int(src.lo, rounder)
        hi = _rounded_int(src.hi, rounder)
        if lo == hi:
            state.stats.concrete_bit_ops += 1
            state.gp[di] = lo & M64
        else:
            # Both rounding modes are monotone, so endpoint images bound
            # every image in between.
            state.stats.widened_bit_ops += 1
            state.gp[di] = IntInterval(lo, hi)

    return step, touch


def _compile_cvtsi2sd(instr):
    src_op, dst_op = instr.operands
    if isinstance(src_op, Mem):
        return _raising("cvtsi2sd from memory"), _NO_TOUCH
    di = dst_op.index
    wide = isinstance(src_op, Reg64)

    def step(state, s=src_op):
        value = state.gp_operand(s)
        if value is TOP:
            state.xmm[di][0] = _Half("f64", TOP)
            return
        if isinstance(value, int):
            state.stats.concrete_bit_ops += 1
            bits = cvtsi2sd64(value) if wide else cvtsi2sd32(value)
            state.xmm[di][0] = _Half.bits(bits)
            return
        state.stats.widened_bit_ops += 1
        lo, hi = float(value.lo), float(value.hi)
        # float(int) rounds to nearest; push outward unless exact.
        if int(lo) != value.lo:
            lo = _down(lo)
        if int(hi) != value.hi:
            hi = _up(hi)
        state.xmm[di][0] = _Half("f64", IntervalD(lo, hi))

    return step, frozenset({XMM_KEYS[di]})


_COMPILERS: Dict[str, Callable] = {}
for _name in _SD:
    _COMPILERS[_name] = _compile_sd
for _name in _SS:
    _COMPILERS[_name] = _compile_ss
for _name in _AVX_SD:
    _COMPILERS[_name] = _compile_avx_sd
for _name in _AVX_SS:
    _COMPILERS[_name] = _compile_avx_ss
for _name in _PD:
    _COMPILERS[_name] = _compile_pd
for _name in _PS:
    _COMPILERS[_name] = _compile_ps
for _name in _FMA:
    _COMPILERS[_name] = _compile_fma
_COMPILERS["sqrtsd"] = _compile_sqrtsd
_COMPILERS["sqrtss"] = _compile_sqrtss
_COMPILERS["movsd"] = _compile_movsd
_COMPILERS["movss"] = _compile_movss
for _name in ("movapd", "movaps", "movdqa", "movups", "movdqu", "lddqu"):
    _COMPILERS[_name] = _compile_mov128
_COMPILERS["movddup"] = _compile_movddup
_COMPILERS["movq"] = _compile_movq
_COMPILERS["movd"] = _compile_movd
_COMPILERS["mov"] = _compile_mov_gp
_COMPILERS["movabs"] = _compile_mov_gp
_COMPILERS["lea"] = _compile_lea
_COMPILERS["punpckldq"] = _compile_punpckldq
_COMPILERS["unpcklpd"] = _compile_unpcklpd
_COMPILERS["unpckhpd"] = _compile_unpckhpd
_COMPILERS["cvtss2sd"] = _compile_cvtss2sd
_COMPILERS["cvtsd2ss"] = _compile_cvtsd2ss
for _name in ("add", "sub", "imul", "and", "or", "xor"):
    _COMPILERS[_name] = _compile_int_binop
for _name in ("shl", "shr", "sar"):
    _COMPILERS[_name] = _compile_shift
for _name in ("xorpd", "xorps", "pxor"):
    _COMPILERS[_name] = _compile_xor128
_COMPILERS["ucomisd"] = _compile_ucomi
_COMPILERS["ucomiss"] = _compile_ucomi
_COMPILERS["cmp"] = _compile_cmp
_COMPILERS["test"] = _compile_cmp
_COMPILERS["cvtsd2si"] = _compile_cvtsd2si
_COMPILERS["cvttsd2si"] = _compile_cvtsd2si
_COMPILERS["cvtsi2sd"] = _compile_cvtsi2sd


def _compile_instr(instr):
    name = instr.opcode
    compiler = _COMPILERS.get(name)
    if compiler is None:
        if not name.startswith("cmov"):
            return (_raising(f"opcode {name} outside the "
                             f"interval-analyzable fragment"), _NO_TOUCH)
        compiler = _compile_cmov
    return compiler(instr)
