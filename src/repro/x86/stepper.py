"""Per-instruction bound execution steps for the incremental evaluator.

A third execution tier between the emulator (operand decode-and-dispatch
per instruction per state) and the JIT (whole-program compile): each
instruction is bound once to a closure with its operand decode already
resolved, and the closure is cached by instruction content.

Edit-aware cost evaluation runs every search proposal through bound
steps, on every backend, and never through the JIT compiler: the
suffix after a checkpoint, the capture segment that builds a missing
checkpoint, and, for an edit with no usable checkpoint boundary, the
whole program from slot 0.  A proposal is a never-before-seen program
evaluated once over a handful of tests, so its compile (~1ms) could
never amortize, and the per-instruction dispatch cost is the knob that
sets proposal throughput.  Hoisting the ``isinstance`` operand dispatch
out of the execution loop roughly halves it for the register-to-register
moves and scalar-double arithmetic that dominate the libimf kernels;
the ``addsd``/``subsd``/``mulsd`` register forms also inline the
bits<->double struct conversions of their scalar helpers, as the JIT's
code generator does.

Only the hottest, simplest shapes are specialized; every other
instruction falls back to its opcode's generic ``exec_fn``, so a
bound-step walk is the emulator semantics by construction.  The
specializations mirror the corresponding ``exec_fn`` bodies (the
inlined arithmetic computes its scalar helper expression for
expression) and ``tests/x86/test_stepper.py`` checks them
differentially against the generic interpreter on random programs, the
libimf kernels and IEEE edge values.

Bound steps read and write ``state.flags`` as the emulator does.  A run
from slot 0 starts with the all-clear flags the JIT prologue assumes
because every run gets a freshly reset pooled state, and the pool
restores the flags on every reset (``TestCase.pooled_state``).
"""

from __future__ import annotations

import operator
import struct
from typing import Callable, Dict, Tuple

from repro.x86 import scalar
from repro.x86.operands import Imm, Reg64, Xmm
from repro.x86.scalar import MASK64

# One closure per distinct instruction.  Novel instructions (fresh
# immediates) accumulate over a long search, so the cache is capped and
# dropped wholesale when full — refilling is cheap.
_STEP_CACHE: Dict[object, Tuple[Callable, tuple]] = {}
_STEP_CACHE_CAP = 65536

# addsd-family semantics (``_sd_binop``): dst.lo = helper(dst.lo, src64).
# The three hottest opcodes have inlined closures below instead.
_SD_BINOP_HELPERS = {
    "divsd": scalar.div_d,
    "minsd": scalar.min_d,
    "maxsd": scalar.max_d,
}

# movapd-family semantics (``_ex_mov128``): full 128-bit register copy.
_MOV128_NAMES = frozenset(("movapd", "movaps", "movdqa", "movups", "movdqu"))

# addsd / subsd / mulsd register forms with scalar.add_d / sub_d / mul_d
# inlined: one two-quad struct round trip reads both operands as
# doubles, and the result is stored with d2u_c's NaN canonicalization.
# State slots only hold 64-bit-masked values, so the helpers' operand
# masking is not needed.
_INLINE_SD_BINOPS = {
    "addsd": operator.add,
    "subsd": operator.sub,
    "mulsd": operator.mul,
}
_PACK_QQ = struct.Struct("<2Q").pack
_UNPACK_DD = struct.Struct("<2d").unpack
_PACK_D = scalar._PACK_D.pack
_UNPACK_Q = scalar._PACK_Q.unpack
_NAN_BITS = scalar._NAN_BITS


def _bind(instr) -> Tuple[Callable, tuple]:
    """The ``(fn, operands)`` pair executing ``instr`` as ``fn(state,
    operands)``; specialized closures ignore the second argument."""
    spec = instr.spec
    ops = instr.operands
    name = instr.opcode

    op = _INLINE_SD_BINOPS.get(name)
    if op is not None and isinstance(ops[0], Xmm):
        # _sd_binop.ex with the scalar helper inlined (see above).
        si, di = ops[0].index, ops[1].index

        def step(state, _ops, op=op, si=si, di=di, pack_qq=_PACK_QQ,
                 unpack_dd=_UNPACK_DD, pack_d=_PACK_D, unpack_q=_UNPACK_Q):
            lo = state.xmm_lo
            x, y = unpack_dd(pack_qq(lo[di], lo[si]))
            r = op(x, y)
            lo[di] = _NAN_BITS if r != r else unpack_q(pack_d(r))[0]

        return step, ops

    helper = _SD_BINOP_HELPERS.get(name)
    if helper is not None and isinstance(ops[0], Xmm):
        # _sd_binop.ex: write_xmm_lo(dst, fn(xmm_lo[dst], read64(src)))
        si, di = ops[0].index, ops[1].index

        def step(state, _ops, fn=helper, si=si, di=di):
            lo = state.xmm_lo
            lo[di] = fn(lo[di], lo[si]) & MASK64

        return step, ops

    if name == "movsd" and isinstance(ops[0], Xmm) and isinstance(ops[1], Xmm):
        # _ex_movsd register form: low-quad copy, high quad preserved.
        si, di = ops[0].index, ops[1].index

        def step(state, _ops, si=si, di=di):
            lo = state.xmm_lo
            lo[di] = lo[si] & MASK64

        return step, ops

    if name in _MOV128_NAMES and isinstance(ops[0], Xmm) \
            and isinstance(ops[1], Xmm):
        # _ex_mov128 register form: both halves copied.
        si, di = ops[0].index, ops[1].index

        def step(state, _ops, si=si, di=di):
            lo, hi = state.xmm_lo, state.xmm_hi
            lo[di] = lo[si] & MASK64
            hi[di] = hi[si] & MASK64

        return step, ops

    if name == "movq" and isinstance(ops[1], Xmm):
        # _ex_movq to-xmm forms: write_xmm(dst, read64(src), 0).
        di = ops[1].index
        if isinstance(ops[0], Imm):
            value = ops[0].value & MASK64

            def step(state, _ops, di=di, value=value):
                state.xmm_lo[di] = value
                state.xmm_hi[di] = 0

            return step, ops
        if isinstance(ops[0], Xmm):
            si = ops[0].index

            def step(state, _ops, si=si, di=di):
                state.xmm_lo[di] = state.xmm_lo[si] & MASK64
                state.xmm_hi[di] = 0

            return step, ops
        if isinstance(ops[0], Reg64):
            si = ops[0].index

            def step(state, _ops, si=si, di=di):
                state.xmm_lo[di] = state.gp[si] & MASK64
                state.xmm_hi[di] = 0

            return step, ops

    if name == "ucomisd" and isinstance(ops[0], Xmm):
        # _ex_ucomisd: flags from ucomi_d(dst.lo, src64).
        si, di = ops[0].index, ops[1].index

        def step(state, _ops, fn=scalar.ucomi_d, si=si, di=di):
            lo = state.xmm_lo
            zf, pf, cf = fn(lo[di], lo[si])
            state.set_flags(zf, cf, 0, 0, pf)

        return step, ops

    return spec.exec_fn, ops


def step_of(instr) -> Tuple[Callable, tuple]:
    """Cached bound step of one instruction (content-addressed)."""
    cached = _STEP_CACHE.get(instr)
    if cached is not None:
        return cached
    step = _bind(instr)
    if len(_STEP_CACHE) >= _STEP_CACHE_CAP:
        _STEP_CACHE.clear()
    _STEP_CACHE[instr] = step
    return step


def bound_steps(slots) -> tuple:
    """Bound steps for the non-UNUSED instructions of a slot sequence."""
    return tuple(step_of(instr) for instr in slots if not instr.is_unused)
