"""Vectorized structure-of-arrays execution backend.

The third evaluator backend (after the emulator and the JIT): a
:class:`~repro.x86.program.Program` is translated once into a sequence of
numpy operations over a *test-vector axis*.  Machine state is held as
structure-of-arrays — ``gp``/``xmm_lo``/``xmm_hi`` as ``(16, n_lanes)``
``uint64`` arrays whose columns are test cases ("lanes") and whose rows
are registers — so one instruction executes for the whole test set in a
handful of C-level array operations instead of ``n`` trips around the
Python interpreter.  This is the classic SIMD-across-tests layout the
paper's C++ evaluator gets from hardware vector units; numpy plays the
role of the vector ISA here.

Bit-exactness contract (checked by the differential suites in
``tests/core/test_batch_runner.py``): every instruction must produce the
same output bits as the emulator's ``exec_fn`` and the JIT's generated
code, including NaN-payload canonicalization (:mod:`repro.x86.scalar`'s
policy), signed zeros, denormals, and conversion saturation sentinels.
numpy float64/float32 arithmetic is IEEE-754 on the same hardware the
scalar backends run on, so the vector forms below are exact
reinterpretations of the scalar helpers, with NaN canonicalization
applied via masks.

Fault semantics: lanes fault independently.  Only per-lane operations
(memory accesses, opcode fallbacks) can raise — floating-point is
non-trapping throughout, with ``np.errstate`` suppressing IEEE flag
warnings — and a faulting lane records its signal and is *frozen*
(``active[lane] = False``): later per-lane operations skip it, and its
column is never scattered back, so the lane's architectural state after a
signal is undefined exactly as it is for the scalar backends.  Vectorized
register operations deliberately compute all lanes unconditionally,
including frozen ones — their columns are dead, and masking every array
op would cost more than it saves.

Like the JIT, the backend keeps status flags out of
:class:`~repro.x86.state.MachineState`: each execution starts from
all-clear flag vectors and never writes ``state.flags`` back (flags are
never live-out in this system).

Instructions with no vectorized form — memory operands, shuffles, FMA,
packed singles — fall back to the emulator's ``exec_fn`` on a scratch
scalar state, lane by lane.  Correctness never depends on which path an
instruction takes; the curated vector set just has to cover the hot
kernels (it covers every register/immediate form the libimf kernels use).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.x86 import scalar
from repro.x86.checkpoint import program_writes
from repro.x86.emulator import Outcome
from repro.x86.liveness import registers_referenced
from repro.x86.instruction import Instruction
from repro.x86.operands import Imm, Mem, Reg32, Reg64, Xmm
from repro.x86.program import Program
from repro.x86.signals import SignalError
from repro.x86.state import MachineState

_U64 = np.uint64
_U32 = np.uint32
_I64 = np.int64
_I32 = np.int32
_F64 = np.float64
_F32 = np.float32

_M64 = 0xFFFFFFFFFFFFFFFF
_M32 = 0xFFFFFFFF
_HI32 = 0xFFFFFFFF00000000

_M64U = _U64(_M64)
_M32U = _U64(_M32)
_HI32U = _U64(_HI32)
_ZERO = _U64(0)

_NAN64 = _U64(scalar._NAN_BITS)
_NAN32 = _U32(scalar._NAN_BITS32)
_INT64_MIN = _U64(scalar.INT64_MIN_BITS)
_INT32_MIN = _U64(scalar.INT32_MIN_BITS)

# Bounds for in-range (non-saturating) float -> int conversion; the
# float64 values -2^63 and -2^31 are exact, 2^63 and 2^31 likewise.
_TWO63 = _F64(2.0 ** 63)
_NEG_TWO63 = _F64(-(2.0 ** 63))
_TWO31 = _F64(2.0 ** 31)
_NEG_TWO31 = _F64(-(2.0 ** 31))

# x86 PF lookup over the low result byte (1 = even number of set bits).
_PARITY = np.array([scalar.parity(v) for v in range(256)], dtype=bool)


def _imm64_bits(value: int) -> np.uint64:
    return _U64(value & _M64)


def _imm_f64(value: int) -> np.float64:
    return np.array([value & _M64], dtype=_U64).view(_F64)[0]


def _imm_f32(value: int) -> np.float32:
    return np.array([value & _M32], dtype=_U32).view(_F32)[0]


# ---------------------------------------------------------------------------
# execution context


class _Lanes:
    """Structure-of-arrays machine state for one batched execution."""

    __slots__ = ("n", "gp", "xl", "xh", "zf", "cf", "sf", "of", "pf",
                 "mems", "active", "signals", "scratch")

    def __init__(self, states: Sequence[MachineState], gp_refs, xmm_refs,
                 packed: Optional[tuple] = None):
        n = len(states)
        self.n = n
        if packed is not None:
            # Adopt a pre-packed full-state image (see :func:`pack_states`,
            # :func:`pack_lanes` and the Runner's pack cache): ownership
            # transfers — the caller must pass freshly gathered arrays
            # this execution may mutate freely.
            self.gp, self.xl, self.xh = packed
        else:
            # Columns are lanes; rows (contiguous) are registers, so one
            # register's vector across the test set is a C-contiguous
            # view.  Only registers the program references are gathered —
            # packing all 48 rows costs more than executing a typical
            # kernel.  (Row assignment from a Python int list casts
            # element-wise through the uint64 dtype, so arbitrary 64-bit
            # patterns are preserved exactly; np.array on a bare int list
            # would go through float64 and corrupt anything above 2**53.)
            self.gp = np.zeros((16, n), dtype=_U64)
            for i in gp_refs:
                self.gp[i] = [s.gp[i] for s in states]
            self.xl = np.zeros((16, n), dtype=_U64)
            self.xh = np.zeros((16, n), dtype=_U64)
            for i in xmm_refs:
                self.xl[i] = [s.xmm_lo[i] for s in states]
                self.xh[i] = [s.xmm_hi[i] for s in states]
        # Flags start all-clear, mirroring the JIT prologue; they are
        # per-execution state, never carried in from MachineState.
        self.zf = np.zeros(n, dtype=bool)
        self.cf = np.zeros(n, dtype=bool)
        self.sf = np.zeros(n, dtype=bool)
        self.of = np.zeros(n, dtype=bool)
        self.pf = np.zeros(n, dtype=bool)
        # Memory stays per-lane: sandboxed segments are mutated in place
        # on the lane's own state, exactly as the scalar backends do.
        self.mems = [s.mem for s in states]
        self.active = [True] * n
        self.signals: List[object] = [None] * n
        # One scalar state reused by every per-lane fallback.
        self.scratch = MachineState(states[0].mem)

    def fault(self, lane: int, signal) -> None:
        self.signals[lane] = signal
        self.active[lane] = False


def pack_states(states: Sequence[MachineState]) -> tuple:
    """Pack full register files into ``(gp, xl, xh)`` lane arrays.

    One-time cost per distinct test: the Runner's vector fast path
    caches these columns and gathers each batch's ``packed`` image with
    one ``np.take`` per array instead of a per-state Python gather.  The
    explicit uint64 dtype keeps arbitrary 64-bit patterns exact.
    """
    gp = np.array([s.gp for s in states], dtype=_U64).T.copy()
    xl = np.array([s.xmm_lo for s in states], dtype=_U64).T.copy()
    xh = np.array([s.xmm_hi for s in states], dtype=_U64).T.copy()
    return gp, xl, xh


def pack_lanes(template: MachineState, inputs, n: int) -> tuple:
    """``n`` lanes of one template's register file, as a ``(gp, xl,
    xh)`` image with live-in rows overwritten.

    ``inputs`` yields ``(Loc, bits)`` pairs in write order, ``bits`` a
    uint64 column of ``n`` lanes or one int for every lane; each write
    has :meth:`~repro.x86.locations.Loc.write`'s semantics on its row
    (64-bit and 32-bit xmm lanes, 64-bit and zero-extending 32-bit GP).
    The image is fresh, so an execution may adopt it.
    """
    from repro.x86.registers import GP64_INDEX, XMM_INDEX

    gp, xl, xh = (np.repeat(rows, n, axis=1)
                  for rows in pack_states([template]))
    for loc, bits in inputs:
        bits = np.asarray(bits, dtype=_U64)
        if loc.reg in XMM_INDEX:
            i = XMM_INDEX[loc.reg]
            if loc.width == 64:
                (xl if loc.lane == 0 else xh)[i] = bits
                continue
            row = xl if loc.lane < 2 else xh
            shift = _U64(32 * (loc.lane & 1))
            row[i] = (row[i] & ~(_M32U << shift)) | ((bits & _M32U) << shift)
        else:
            gp[GP64_INDEX[loc.reg]] = bits & _M32U if loc.width == 32 \
                else bits
    return gp, xl, xh


def live_out_registers(locs) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The ``(gp, xmm)`` register indices the register locations among
    ``locs`` read: rows a lane context must hold for
    :func:`make_column_readers` (see
    :meth:`VectorizedProgram.run_batch_columns`)."""
    from repro.x86.locations import MemLoc
    from repro.x86.registers import GP64_INDEX, XMM_INDEX

    gp, xmm = set(), set()
    for loc in locs:
        if isinstance(loc, MemLoc):
            continue
        if loc.reg in XMM_INDEX:
            xmm.add(XMM_INDEX[loc.reg])
        else:
            gp.add(GP64_INDEX[loc.reg])
    return tuple(sorted(gp)), tuple(sorted(xmm))


def make_column_readers(locs) -> tuple:
    """Compile live-out locations into ``(ctx, states) -> uint64 array``
    readers over a finished :class:`_Lanes` context.

    The vector analogue of :func:`repro.x86.locations.make_reader`: one
    row operation per location reads the whole batch.  Register
    locations read the lane arrays; memory live-outs read each lane's
    (in-place mutated) sandbox, so they go through the per-state reader.
    Lane ``j`` must hold exactly the bits ``loc.read(states[j])`` would.
    """
    from repro.x86.locations import MemLoc, make_reader
    from repro.x86.registers import GP64_INDEX, XMM_INDEX

    readers = []
    for loc in locs:
        if isinstance(loc, MemLoc):
            read = make_reader(loc)
            readers.append(lambda ctx, states, _r=read:
                           np.array([_r(s) for s in states], dtype=_U64))
        elif loc.reg in XMM_INDEX:
            i = XMM_INDEX[loc.reg]
            if loc.width == 64:
                attr = "xl" if loc.lane == 0 else "xh"
                readers.append(lambda ctx, states, _i=i, _a=attr:
                               getattr(ctx, _a)[_i])
            else:
                attr = "xl" if loc.lane < 2 else "xh"
                shift = _U64(32 * (loc.lane & 1))
                readers.append(lambda ctx, states, _i=i, _a=attr, _s=shift:
                               (getattr(ctx, _a)[_i] >> _s) & _M32U)
        else:
            i = GP64_INDEX[loc.reg]
            if loc.width == 32:
                readers.append(lambda ctx, states, _i=i:
                               ctx.gp[_i] & _M32U)
            else:
                readers.append(lambda ctx, states, _i=i: ctx.gp[_i])
    return tuple(readers)


# ---------------------------------------------------------------------------
# operand readers/writers (closure-generation time)


def _read64(op):
    """A ``ctx -> uint64 array (or scalar)`` reader of a 64-bit source."""
    if isinstance(op, Xmm):
        i = op.index
        return lambda ctx: ctx.xl[i]
    if isinstance(op, Reg64):
        i = op.index
        return lambda ctx: ctx.gp[i]
    if isinstance(op, Imm):
        v = _imm64_bits(op.value)
        return lambda ctx: v
    return None  # memory goes through the per-lane fallback


def _read32(op):
    if isinstance(op, Xmm):
        i = op.index
        return lambda ctx: ctx.xl[i] & _M32U
    if isinstance(op, (Reg64, Reg32)):
        i = op.index
        return lambda ctx: ctx.gp[i] & _M32U
    if isinstance(op, Imm):
        v = _U64(op.value & _M32)
        return lambda ctx: v
    return None


def _read_f64(op):
    """Reader of a 64-bit source reinterpreted as float64."""
    if isinstance(op, Xmm):
        i = op.index
        return lambda ctx: ctx.xl[i].view(_F64)
    if isinstance(op, Reg64):
        i = op.index
        return lambda ctx: ctx.gp[i].view(_F64)
    if isinstance(op, Imm):
        v = _imm_f64(op.value)
        return lambda ctx: v
    return None


def _read_f32(op):
    """Reader of a 32-bit source reinterpreted as float32."""
    if isinstance(op, Xmm):
        i = op.index
        return lambda ctx: (ctx.xl[i] & _M32U).astype(_U32).view(_F32)
    if isinstance(op, (Reg64, Reg32)):
        i = op.index
        return lambda ctx: (ctx.gp[i] & _M32U).astype(_U32).view(_F32)
    if isinstance(op, Imm):
        v = _imm_f32(op.value)
        return lambda ctx: v
    return None


def _canon_d(values) -> np.ndarray:
    """float64 array -> uint64 bits with arithmetic-NaN canonicalization
    (the vector form of :func:`repro.x86.scalar.d2u_c`)."""
    return np.where(np.isnan(values), _NAN64, values.view(_U64))


def _canon_f(values) -> np.ndarray:
    """float32 array -> uint64 bits (low dword) with canonical NaNs
    (the vector form of :func:`repro.x86.scalar.f2u_c`)."""
    return np.where(np.isnan(values), _NAN32, values.view(_U32)).astype(_U64)


def _merge_lo32(ctx, dst_index: int, bits64) -> None:
    """Write a 32-bit result into an XMM low dword, preserving the rest
    (the SSE scalar-single rule)."""
    ctx.xl[dst_index] = (ctx.xl[dst_index] & _HI32U) | bits64


# ---------------------------------------------------------------------------
# vector op builders
#
# Each builder takes an instruction's operands and returns a closure
# ``op(ctx)`` executing it across all lanes, or None when this operand
# form has no vector implementation (-> per-lane fallback).

_BUILDERS = {}


def _builder(*names):
    def wrap(fn):
        for name in names:
            _BUILDERS[name] = fn
        return fn
    return wrap


def _has_mem(ops) -> bool:
    return any(isinstance(op, Mem) for op in ops)


# -- scalar double arithmetic ------------------------------------------------

_SD_ARITH = {
    "addsd": lambda d, s: d + s,
    "subsd": lambda d, s: d - s,
    "mulsd": lambda d, s: d * s,
    "divsd": lambda d, s: d / s,
}


def _build_sd_binop(name):
    arith = _SD_ARITH.get(name)

    def build(ops):
        if _has_mem(ops):
            return None
        src = _read_f64(ops[0])
        d = ops[1].index
        if arith is not None:
            def op(ctx, _src=src, _d=d, _fn=arith):
                ctx.xl[_d] = _canon_d(_fn(ctx.xl[_d].view(_F64), _src(ctx)))
            return op
        # minsd/maxsd: x86 select semantics (src on ties/NaN), then
        # canonicalize a NaN selection.
        greater = name == "maxsd"
        src_bits = _read64(ops[0])

        def op(ctx, _src=src, _bits=src_bits, _d=d, _gt=greater):
            x = ctx.xl[_d].view(_F64)
            y = _src(ctx)
            take_dst = x > y if _gt else x < y
            res = np.where(take_dst, ctx.xl[_d], _bits(ctx))
            ctx.xl[_d] = np.where(np.isnan(res.view(_F64)), _NAN64, res)
        return op
    return build


for _name in ("addsd", "subsd", "mulsd", "divsd", "minsd", "maxsd"):
    _BUILDERS[_name] = _build_sd_binop(_name)


@_builder("sqrtsd")
def _build_sqrtsd(ops):
    if _has_mem(ops):
        return None
    src = _read_f64(ops[0])
    d = ops[1].index

    def op(ctx, _src=src, _d=d):
        ctx.xl[_d] = _canon_d(np.sqrt(_src(ctx)))
    return op


def _build_avx_sd_binop(name):
    # v<op>sd s1, s2, d:  d.lo = op(s2.lo, s1.lo);  d.hi = s2.hi
    base = name[1:]
    arith = _SD_ARITH.get(base)
    greater = base == "maxsd"
    is_minmax = base in ("minsd", "maxsd")

    def build(ops):
        if _has_mem(ops):
            return None
        s1_f = _read_f64(ops[0])
        s2 = ops[1].index
        d = ops[2].index
        if not is_minmax:
            def op(ctx, _s1=s1_f, _s2=s2, _d=d, _fn=arith):
                lo = _canon_d(_fn(ctx.xl[_s2].view(_F64), _s1(ctx)))
                ctx.xh[_d] = ctx.xh[_s2]
                ctx.xl[_d] = lo
            return op
        s1_bits = _read64(ops[0])

        def op(ctx, _s1=s1_f, _bits=s1_bits, _s2=s2, _d=d, _gt=greater):
            x = ctx.xl[_s2].view(_F64)
            y = _s1(ctx)
            take_dst = x > y if _gt else x < y
            res = np.where(take_dst, ctx.xl[_s2], _bits(ctx))
            lo = np.where(np.isnan(res.view(_F64)), _NAN64, res)
            ctx.xh[_d] = ctx.xh[_s2]
            ctx.xl[_d] = lo
        return op
    return build


for _name in ("vaddsd", "vsubsd", "vmulsd", "vdivsd", "vminsd", "vmaxsd"):
    _BUILDERS[_name] = _build_avx_sd_binop(_name)


# -- scalar single arithmetic ------------------------------------------------

_SS_ARITH = {
    "addss": lambda d, s: d + s,
    "subss": lambda d, s: d - s,
    "mulss": lambda d, s: d * s,
    "divss": lambda d, s: d / s,
}


def _build_ss_binop(name):
    arith = _SS_ARITH.get(name)
    greater = name == "maxss"

    def build(ops):
        if _has_mem(ops):
            return None
        src = _read_f32(ops[0])
        d = ops[1].index
        if arith is not None:
            def op(ctx, _src=src, _d=d, _fn=arith):
                x = (ctx.xl[_d] & _M32U).astype(_U32).view(_F32)
                _merge_lo32(ctx, _d, _canon_f(_fn(x, _src(ctx))))
            return op
        src_bits = _read32(ops[0])

        def op(ctx, _src=src, _bits=src_bits, _d=d, _gt=greater):
            dst_bits = ctx.xl[_d] & _M32U
            x = dst_bits.astype(_U32).view(_F32)
            y = _src(ctx)
            take_dst = x > y if _gt else x < y
            res = np.where(take_dst, dst_bits, _bits(ctx))
            res32 = res.astype(_U32)
            res = np.where(np.isnan(res32.view(_F32)), _NAN32,
                           res32).astype(_U64)
            _merge_lo32(ctx, _d, res)
        return op
    return build


for _name in ("addss", "subss", "mulss", "divss", "minss", "maxss"):
    _BUILDERS[_name] = _build_ss_binop(_name)


@_builder("sqrtss")
def _build_sqrtss(ops):
    if _has_mem(ops):
        return None
    src = _read_f32(ops[0])
    d = ops[1].index

    def op(ctx, _src=src, _d=d):
        _merge_lo32(ctx, _d, _canon_f(np.sqrt(_src(ctx))))
    return op


# -- packed double arithmetic ------------------------------------------------

def _build_pd_binop(name):
    arith = _SD_ARITH[name.replace("pd", "sd")]

    def build(ops):
        if _has_mem(ops):
            return None
        s = ops[0].index
        d = ops[1].index

        def op(ctx, _s=s, _d=d, _fn=arith):
            lo = _canon_d(_fn(ctx.xl[_d].view(_F64), ctx.xl[_s].view(_F64)))
            hi = _canon_d(_fn(ctx.xh[_d].view(_F64), ctx.xh[_s].view(_F64)))
            ctx.xl[_d] = lo
            ctx.xh[_d] = hi
        return op
    return build


for _name in ("addpd", "subpd", "mulpd", "divpd"):
    _BUILDERS[_name] = _build_pd_binop(_name)


# -- 128-bit bitwise ---------------------------------------------------------

_BITWISE = {
    "andpd": lambda d, s: d & s, "andps": lambda d, s: d & s,
    "pand": lambda d, s: d & s,
    "orpd": lambda d, s: d | s, "orps": lambda d, s: d | s,
    "por": lambda d, s: d | s,
    "xorpd": lambda d, s: d ^ s, "xorps": lambda d, s: d ^ s,
    "pxor": lambda d, s: d ^ s,
    "andnpd": lambda d, s: ~d & s,
}


def _build_bitwise(name):
    fn = _BITWISE[name]

    def build(ops):
        if _has_mem(ops):
            return None
        s = ops[0].index
        d = ops[1].index

        def op(ctx, _s=s, _d=d, _fn=fn):
            lo = _fn(ctx.xl[_d], ctx.xl[_s])
            hi = _fn(ctx.xh[_d], ctx.xh[_s])
            ctx.xl[_d] = lo
            ctx.xh[_d] = hi
        return op
    return build


for _name in _BITWISE:
    _BUILDERS[_name] = _build_bitwise(_name)


# -- moves -------------------------------------------------------------------

@_builder("movsd")
def _build_movsd(ops):
    if _has_mem(ops):
        return None
    s = ops[0].index
    d = ops[1].index

    def op(ctx, _s=s, _d=d):
        ctx.xl[_d] = ctx.xl[_s]
    return op


@_builder("movss")
def _build_movss(ops):
    if _has_mem(ops):
        return None
    s = ops[0].index
    d = ops[1].index

    def op(ctx, _s=s, _d=d):
        _merge_lo32(ctx, _d, ctx.xl[_s] & _M32U)
    return op


@_builder("movapd", "movaps", "movdqa", "movups", "movdqu")
def _build_mov128(ops):
    if _has_mem(ops):
        return None
    s = ops[0].index
    d = ops[1].index

    def op(ctx, _s=s, _d=d):
        ctx.xl[_d] = ctx.xl[_s]
        ctx.xh[_d] = ctx.xh[_s]
    return op


@_builder("movddup")
def _build_movddup(ops):
    if _has_mem(ops):
        return None
    s = ops[0].index
    d = ops[1].index

    def op(ctx, _s=s, _d=d):
        lo = ctx.xl[_s]
        ctx.xh[_d] = lo
        ctx.xl[_d] = lo
    return op


@_builder("movq")
def _build_movq(ops):
    if _has_mem(ops):
        return None
    src, dst = ops
    if isinstance(dst, Xmm):
        read = _read64(src)
        d = dst.index

        def op(ctx, _read=read, _d=d):
            ctx.xl[_d] = _read(ctx)  # broadcast for immediates
            ctx.xh[_d] = _ZERO
        return op
    read = _read64(src)
    d = dst.index

    def op(ctx, _read=read, _d=d):
        ctx.gp[_d] = _read(ctx)
    return op


@_builder("movd")
def _build_movd(ops):
    if _has_mem(ops):
        return None
    src, dst = ops
    read = _read32(src)
    d = dst.index
    if isinstance(dst, Xmm):
        def op(ctx, _read=read, _d=d):
            ctx.xl[_d] = _read(ctx)
            ctx.xh[_d] = _ZERO
        return op

    def op(ctx, _read=read, _d=d):
        ctx.gp[_d] = _read(ctx)
    return op


@_builder("mov", "movabs")
def _build_mov(ops):
    if _has_mem(ops):
        return None
    src, dst = ops
    d = dst.index
    read = _read64(src) if isinstance(dst, Reg64) else _read32(src)

    def op(ctx, _read=read, _d=d):
        ctx.gp[_d] = _read(ctx)
    return op


@_builder("lea")
def _build_lea(ops):
    # lea computes the effective address without touching memory, so it
    # vectorizes even though its source operand is a Mem.
    mem, dst = ops
    base = mem.base
    index = mem.index
    scale = _U64(mem.scale) if mem.index is not None else None
    disp = _U64(mem.disp & _M64)
    d = dst.index

    def op(ctx, _b=base, _i=index, _s=scale, _disp=disp, _d=d):
        addr = ctx.gp[_b] + _disp
        if _i is not None:
            addr = addr + ctx.gp[_i] * _s
        ctx.gp[_d] = addr
    return op


# -- GP ALU ------------------------------------------------------------------

_GP_ARITH = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "imul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
}


def _build_gp_binop(name):
    fn = _GP_ARITH[name]

    def build(ops):
        if _has_mem(ops):
            return None
        src, dst = ops
        d = dst.index
        if isinstance(dst, Reg64):
            read = _read64(src)

            def op(ctx, _read=read, _d=d, _fn=fn):
                ctx.gp[_d] = _fn(ctx.gp[_d], _read(ctx))
            return op
        read = _read32(src)

        def op(ctx, _read=read, _d=d, _fn=fn):
            ctx.gp[_d] = _fn(ctx.gp[_d] & _M32U, _read(ctx)) & _M32U
        return op
    return build


for _name in _GP_ARITH:
    _BUILDERS[_name] = _build_gp_binop(_name)


@_builder("not")
def _build_not(ops):
    dst = ops[0]
    d = dst.index
    if isinstance(dst, Reg64):
        def op(ctx, _d=d):
            ctx.gp[_d] = ~ctx.gp[_d]
        return op

    def op(ctx, _d=d):
        ctx.gp[_d] = (ctx.gp[_d] & _M32U) ^ _M32U
    return op


@_builder("neg")
def _build_neg(ops):
    dst = ops[0]
    d = dst.index
    if isinstance(dst, Reg64):
        def op(ctx, _d=d):
            ctx.gp[_d] = _ZERO - ctx.gp[_d]
        return op

    def op(ctx, _d=d):
        ctx.gp[_d] = (_ZERO - (ctx.gp[_d] & _M32U)) & _M32U
    return op


def _build_shift(name):
    def build(ops):
        imm, dst = ops
        d = dst.index
        wide = isinstance(dst, Reg64)
        n = imm.value & (63 if wide else 31)
        if name == "shl":
            count = _U64(n)
            if wide:
                def op(ctx, _d=d, _n=count):
                    ctx.gp[_d] = ctx.gp[_d] << _n
                return op

            def op(ctx, _d=d, _n=count):
                ctx.gp[_d] = ((ctx.gp[_d] & _M32U) << _n) & _M32U
            return op
        if name == "shr":
            count = _U64(n)
            if wide:
                def op(ctx, _d=d, _n=count):
                    ctx.gp[_d] = ctx.gp[_d] >> _n
                return op

            def op(ctx, _d=d, _n=count):
                ctx.gp[_d] = (ctx.gp[_d] & _M32U) >> _n
            return op
        # sar: arithmetic shift via a signed view of the operand width.
        if wide:
            count = _I64(n)

            def op(ctx, _d=d, _n=count):
                ctx.gp[_d] = (ctx.gp[_d].view(_I64) >> _n).view(_U64)
            return op
        count = _I32(n)

        def op(ctx, _d=d, _n=count):
            low = (ctx.gp[_d] & _M32U).astype(_U32)
            ctx.gp[_d] = (low.view(_I32) >> _n).view(_U32).astype(_U64)
        return op
    return build


for _name in ("shl", "shr", "sar"):
    _BUILDERS[_name] = _build_shift(_name)


# -- comparisons, flags, conditional moves -----------------------------------

def _set_cmp_flags(ctx, a, b, sign_bit):
    t = a - b
    if sign_bit == _U64(1 << 31):
        t = t & _M32U
    ctx.zf = t == _ZERO
    ctx.cf = a < b
    ctx.sf = (t & sign_bit) != _ZERO
    ctx.of = (((a ^ b) & (a ^ t)) & sign_bit) != _ZERO
    ctx.pf = _PARITY[(t & _U64(0xFF)).astype(np.intp)]


@_builder("cmp")
def _build_cmp(ops):
    if _has_mem(ops):
        return None
    b_op, a_op = ops  # AT&T: cmp b, a  sets flags from a - b
    a_index = a_op.index
    if isinstance(a_op, Reg64):
        read_b = _read64(b_op)
        sign = _U64(1 << 63)

        def op(ctx, _a=a_index, _read=read_b, _sign=sign):
            _set_cmp_flags(ctx, ctx.gp[_a], _read(ctx), _sign)
        return op
    read_b = _read32(b_op)
    sign = _U64(1 << 31)

    def op(ctx, _a=a_index, _read=read_b, _sign=sign):
        _set_cmp_flags(ctx, ctx.gp[_a] & _M32U, _read(ctx), _sign)
    return op


@_builder("test")
def _build_test(ops):
    if _has_mem(ops):
        return None
    b_op, a_op = ops
    a_index = a_op.index
    wide = isinstance(a_op, Reg64)
    read_b = _read64(b_op) if wide else _read32(b_op)
    sign = _U64(1 << 63) if wide else _U64(1 << 31)
    mask = _M64U if wide else _M32U

    def op(ctx, _a=a_index, _read=read_b, _sign=sign, _mask=mask):
        t = (ctx.gp[_a] & _mask) & _read(ctx)
        ctx.zf = t == _ZERO
        ctx.cf = np.zeros(ctx.n, dtype=bool)
        ctx.sf = (t & _sign) != _ZERO
        ctx.of = np.zeros(ctx.n, dtype=bool)
        ctx.pf = _PARITY[(t & _U64(0xFF)).astype(np.intp)]
    return op


def _build_ucomi(read_fn, view):
    def build(ops):
        if _has_mem(ops):
            return None
        src = read_fn(ops[0])
        d = ops[1].index

        def op(ctx, _src=src, _d=d):
            x = view(ctx, _d)
            y = _src(ctx)
            unordered = np.isnan(x) | np.isnan(y)
            ctx.zf = unordered | (x == y)
            ctx.pf = unordered
            ctx.cf = unordered | (x < y)
            ctx.sf = np.zeros(ctx.n, dtype=bool)
            ctx.of = np.zeros(ctx.n, dtype=bool)
        return op
    return build


_BUILDERS["ucomisd"] = _build_ucomi(
    _read_f64, lambda ctx, d: ctx.xl[d].view(_F64))
_BUILDERS["ucomiss"] = _build_ucomi(
    _read_f32, lambda ctx, d: (ctx.xl[d] & _M32U).astype(_U32).view(_F32))


_CONDITIONS = {
    "e": lambda c: c.zf,
    "ne": lambda c: ~c.zf,
    "b": lambda c: c.cf,
    "be": lambda c: c.cf | c.zf,
    "a": lambda c: ~(c.cf | c.zf),
    "ae": lambda c: ~c.cf,
    "s": lambda c: c.sf,
    "ns": lambda c: ~c.sf,
    "l": lambda c: c.sf != c.of,
    "ge": lambda c: c.sf == c.of,
    "le": lambda c: (c.sf != c.of) | c.zf,
    "g": lambda c: ~((c.sf != c.of) | c.zf),
}


def _build_cmov(cc):
    cond = _CONDITIONS[cc]

    def build(ops):
        if _has_mem(ops):
            return None
        src, dst = ops
        d = dst.index
        if isinstance(dst, Reg64):
            read = _read64(src)

            def op(ctx, _read=read, _d=d, _cond=cond):
                ctx.gp[_d] = np.where(_cond(ctx), _read(ctx), ctx.gp[_d])
            return op
        read = _read32(src)

        def op(ctx, _read=read, _d=d, _cond=cond):
            # x86-64: a 32-bit cmov zero-extends even when not taken.
            ctx.gp[_d] = np.where(_cond(ctx), _read(ctx),
                                  ctx.gp[_d] & _M32U)
        return op
    return build


for _cc in _CONDITIONS:
    _BUILDERS[f"cmov{_cc}"] = _build_cmov(_cc)


# -- conversions -------------------------------------------------------------

@_builder("cvtsd2ss")
def _build_cvtsd2ss(ops):
    if _has_mem(ops):
        return None
    src = _read_f64(ops[0])
    d = ops[1].index

    def op(ctx, _src=src, _d=d):
        _merge_lo32(ctx, _d, _canon_f(np.asarray(_src(ctx)).astype(_F32)))
    return op


@_builder("cvtss2sd")
def _build_cvtss2sd(ops):
    if _has_mem(ops):
        return None
    src = _read_f32(ops[0])
    d = ops[1].index

    def op(ctx, _src=src, _d=d):
        ctx.xl[_d] = _canon_d(np.asarray(_src(ctx)).astype(_F64))
    return op


def _trunc_to_int(values, lo_bound, hi_bound, wide):
    """Saturating float64 -> integer bits shared by the cvt*2si family.

    ``values`` must already be rounded (trunc/rint); NaN compares false
    against both bounds and lands on the x86 saturation sentinel.
    """
    in_range = (values >= lo_bound) & (values < hi_bound)
    safe = np.where(in_range, values, 0.0).astype(_I64).view(_U64)
    if wide:
        return np.where(in_range, safe, _INT64_MIN)
    return np.where(in_range, safe & _M32U, _INT32_MIN)


@_builder("cvttsd2si")
def _build_cvttsd2si(ops):
    if _has_mem(ops):
        return None
    src = _read_f64(ops[0])
    d = ops[1].index
    wide = isinstance(ops[1], Reg64)
    lo, hi = (_NEG_TWO63, _TWO63) if wide else (_NEG_TWO31, _TWO31)

    def op(ctx, _src=src, _d=d, _lo=lo, _hi=hi, _wide=wide):
        ctx.gp[_d] = _trunc_to_int(np.trunc(_src(ctx)), _lo, _hi, _wide)
    return op


@_builder("cvtsd2si")
def _build_cvtsd2si(ops):
    if _has_mem(ops):
        return None
    src = _read_f64(ops[0])
    d = ops[1].index

    def op(ctx, _src=src, _d=d):
        ctx.gp[_d] = _trunc_to_int(np.rint(_src(ctx)), _NEG_TWO63, _TWO63,
                                   True)
    return op


@_builder("cvttss2si")
def _build_cvttss2si(ops):
    if _has_mem(ops):
        return None
    src = _read_f32(ops[0])
    d = ops[1].index
    wide = isinstance(ops[1], Reg64)
    lo, hi = (_NEG_TWO63, _TWO63) if wide else (_NEG_TWO31, _TWO31)

    def op(ctx, _src=src, _d=d, _lo=lo, _hi=hi, _wide=wide):
        x = np.asarray(_src(ctx)).astype(_F64)
        ctx.gp[_d] = _trunc_to_int(np.trunc(x), _lo, _hi, _wide)
    return op


@_builder("cvtsi2sd")
def _build_cvtsi2sd(ops):
    if _has_mem(ops):
        return None
    src, dst = ops
    s = src.index
    d = dst.index
    if isinstance(src, Reg64):
        def op(ctx, _s=s, _d=d):
            ctx.xl[_d] = ctx.gp[_s].view(_I64).astype(_F64).view(_U64)
        return op

    def op(ctx, _s=s, _d=d):
        signed = (ctx.gp[_s] & _M32U).astype(_U32).view(_I32)
        ctx.xl[_d] = signed.astype(_F64).view(_U64)
    return op


@_builder("cvtsi2ss")
def _build_cvtsi2ss(ops):
    if _has_mem(ops):
        return None
    src, dst = ops
    s = src.index
    d = dst.index
    if isinstance(src, Reg64):
        def op(ctx, _s=s, _d=d):
            res = ctx.gp[_s].view(_I64).astype(_F32)
            _merge_lo32(ctx, _d, res.view(_U32).astype(_U64))
        return op

    def op(ctx, _s=s, _d=d):
        signed = (ctx.gp[_s] & _M32U).astype(_U32).view(_I32)
        _merge_lo32(ctx, _d, signed.astype(_F32).view(_U32).astype(_U64))
    return op


@_builder("cvtps2pd")
def _build_cvtps2pd(ops):
    if _has_mem(ops):
        return None
    s = ops[0].index
    d = ops[1].index

    def op(ctx, _s=s, _d=d):
        lanes = ctx.xl[_s]
        lo = _canon_d((lanes & _M32U).astype(_U32).view(_F32).astype(_F64))
        hi = _canon_d((lanes >> _U64(32)).astype(_U32).view(_F32)
                      .astype(_F64))
        ctx.xl[_d] = lo
        ctx.xh[_d] = hi
    return op


@_builder("cvtpd2ps")
def _build_cvtpd2ps(ops):
    if _has_mem(ops):
        return None
    s = ops[0].index
    d = ops[1].index

    def op(ctx, _s=s, _d=d):
        lo = _canon_f(ctx.xl[_s].view(_F64).astype(_F32))
        hi = _canon_f(ctx.xh[_s].view(_F64).astype(_F32))
        ctx.xl[_d] = lo | (hi << _U64(32))
        ctx.xh[_d] = _ZERO
    return op


_ROUND_MODES = {0: np.rint, 1: np.floor, 2: np.ceil, 3: np.trunc}


@_builder("roundsd")
def _build_roundsd(ops):
    if _has_mem(ops):
        return None
    imm, src, dst = ops
    round_fn = _ROUND_MODES[imm.value & 3]
    read = _read_f64(src)
    d = dst.index

    def op(ctx, _read=read, _d=d, _fn=round_fn):
        x = _read(ctx)
        r = _fn(x)
        # A zero result keeps the argument's sign (roundsd rule).
        r = np.where(r == 0.0, np.copysign(r, x), r)
        ctx.xl[_d] = _canon_d(r)
    return op


@_builder("nop")
def _build_nop(_ops):
    def op(_ctx):
        return None
    return op


# ---------------------------------------------------------------------------
# per-lane fallback


def _lane_fallback(instr: Instruction):
    """Execute one instruction lane-by-lane through the emulator's
    ``exec_fn`` on a scratch scalar state.

    This is the completeness path: memory operands (the only runtime
    fault source), shuffles, FMA, packed singles — anything without a
    vector form.  Inactive (faulted) lanes are skipped; a lane that
    signals here is frozen for the rest of the execution.
    """
    exec_fn = instr.spec.exec_fn
    operands = instr.operands
    reads_flags = instr.spec.reads_flags
    writes_flags = instr.spec.writes_flags

    def op(ctx):
        gp, xl, xh = ctx.gp, ctx.xl, ctx.xh
        scratch = ctx.scratch
        flags = scratch.flags
        active = ctx.active
        mems = ctx.mems
        for j in range(ctx.n):
            if not active[j]:
                continue
            scratch.gp[:] = gp[:, j].tolist()
            scratch.xmm_lo[:] = xl[:, j].tolist()
            scratch.xmm_hi[:] = xh[:, j].tolist()
            if reads_flags:
                flags["zf"] = int(ctx.zf[j])
                flags["cf"] = int(ctx.cf[j])
                flags["sf"] = int(ctx.sf[j])
                flags["of"] = int(ctx.of[j])
                flags["pf"] = int(ctx.pf[j])
            scratch.mem = mems[j]
            try:
                exec_fn(scratch, operands)
            except SignalError as exc:
                ctx.fault(j, exc.signal)
                continue
            gp[:, j] = scratch.gp
            xl[:, j] = scratch.xmm_lo
            xh[:, j] = scratch.xmm_hi
            if writes_flags:
                ctx.zf[j] = bool(flags["zf"])
                ctx.cf[j] = bool(flags["cf"])
                ctx.sf[j] = bool(flags["sf"])
                ctx.of[j] = bool(flags["of"])
                ctx.pf[j] = bool(flags["pf"])
    return op


def _vectorize_instr(instr: Instruction):
    builder = _BUILDERS.get(instr.opcode)
    if builder is not None:
        op = builder(instr.operands)
        if op is not None:
            return op, True
    return _lane_fallback(instr), False


# ---------------------------------------------------------------------------
# the compiled form


class VectorizedProgram:
    """A program translated once into per-instruction vector closures.

    Stands in for the JIT's ``CompiledProgram`` as the Runner consumes
    it: ``writes_mem``, :meth:`run` on one scalar
    :class:`MachineState` (a pack -> vector-execute -> scatter round
    trip), and :meth:`run_batch_columns`, which leaves the states'
    register files alone.
    """

    __slots__ = ("program", "writes_mem", "_writes", "_ops", "_gp_refs",
                 "_xmm_refs", "vector_coverage")

    def __init__(self, program: Program):
        self.program = program
        # Liveness over-approximation of what a run writes; any superset
        # is safe for :meth:`run`'s scatter.
        self._writes = program_writes(program)
        self.writes_mem = self._writes[3]
        gp_refs, xmm_refs = registers_referenced(program)
        self._gp_refs = tuple(sorted(gp_refs))
        self._xmm_refs = tuple(sorted(xmm_refs))
        ops = []
        covered = 0
        total = 0
        for instr in program.slots:
            if instr.is_unused:
                ops.append(None)
                continue
            op, vectorized = _vectorize_instr(instr)
            ops.append(op)
            total += 1
            covered += vectorized
        self._ops = ops
        # Fraction of live instructions with a true vector form — a
        # diagnostic for benchmarks (fallback-heavy programs run at
        # emulator-like speed).
        self.vector_coverage = covered / total if total else 1.0

    # -- CompiledProgram-compatible surface --------------------------------

    def run(self, state: MachineState) -> Outcome:
        """Execute on one machine state in place (single-lane vector)."""
        ctx = _Lanes([state], self._gp_refs, self._xmm_refs)
        with np.errstate(all="ignore"):
            for op in self._ops:
                if op is not None:
                    op(ctx)
        signal = ctx.signals[0]
        if signal is None:
            # Scatter the written rows back into the scalar state; after
            # a signal the state is undefined, as with the scalar
            # backends.
            gp_idx, xl_idx, xh_idx, _mem = self._writes
            for arr, indices, regs in ((ctx.gp, gp_idx, state.gp),
                                       (ctx.xl, xl_idx, state.xmm_lo),
                                       (ctx.xh, xh_idx, state.xmm_hi)):
                for i in indices:
                    regs[i] = int(arr[i, 0])
        return Outcome(signal=signal)

    def run_batch_columns(self, states: Sequence[MachineState],
                          packed: Optional[tuple],
                          live_regs: Tuple[tuple, tuple]):
        """Execute without scattering; returns ``(signals, lane context)``.

        The Runner's vector fast path reads live-out bits straight from
        the context's rows (:func:`make_column_readers`) instead of
        round-tripping through scalar states, so the states' register
        files are left untouched — only their memory can be mutated (in
        place, by per-lane stores).  ``packed`` is a freshly gathered
        :func:`pack_states` image to adopt (ownership transfers), or
        None to gather from ``states``: then only the registers the
        program names are gathered, plus the ``(gp, xmm)`` indices of
        ``live_regs`` (:func:`live_out_registers`), because a live-out
        the program never names must still read its state's value, not
        zero.
        """
        if not states:
            return [], None
        gp_refs, xmm_refs = self._gp_refs, self._xmm_refs
        if packed is None:
            gp_refs = sorted(set(gp_refs).union(live_regs[0]))
            xmm_refs = sorted(set(xmm_refs).union(live_regs[1]))
        ctx = _Lanes(states, gp_refs, xmm_refs, packed)
        with np.errstate(all="ignore"):
            for op in self._ops:
                if op is not None:
                    op(ctx)
        return ctx.signals, ctx


# Bounded LRU keyed on immutable program values, mirroring the JIT's
# compile cache: the programs a validation, exhaustive check or catalog
# measurement runs are translated once and reused across batches.
_VECTORIZE_CACHE: "OrderedDict[Program, VectorizedProgram]" = OrderedDict()
_VECTORIZE_CACHE_MAX = 8192


def vectorize_program(program: Program) -> VectorizedProgram:
    """Translate a program for repeated vector execution (memoized)."""
    cached = _VECTORIZE_CACHE.get(program)
    if cached is not None:
        _VECTORIZE_CACHE.move_to_end(program)
        return cached
    vectorized = VectorizedProgram(program)
    while len(_VECTORIZE_CACHE) >= _VECTORIZE_CACHE_MAX:
        _VECTORIZE_CACHE.popitem(last=False)
    _VECTORIZE_CACHE[program] = vectorized
    return vectorized


def clear_vectorize_cache() -> None:
    """Drop all cached translations (test hook)."""
    _VECTORIZE_CACHE.clear()
