"""Per-instruction bound execution steps for the incremental evaluator.

A third execution tier between the emulator (operand decode-and-dispatch
per instruction per state) and the JIT (whole-program compile): each
instruction is bound once to a closure with its operand decode already
resolved, and the closure is cached by instruction content.

The search's cost function runs every program through bound steps, on
every backend, and never through the JIT compiler: the suffix after a
checkpoint, the capture segment that builds a missing checkpoint, and,
for an edit with no usable checkpoint boundary or a program with no
known edit, the whole program from slot 0.  A proposal is a
never-before-seen program evaluated once over a handful of tests, so
its compile (~1ms) could never amortize, and the per-instruction
dispatch cost is the knob that sets proposal throughput.  Hoisting the
``isinstance`` operand dispatch out of the execution loop roughly
halves it for the register-to-register moves and scalar-double
arithmetic that dominate the libimf kernels;
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

Lane batches.  A chunk of two or more tests runs its suffix once over
all of its states (:func:`run_lanes`), one lane per state, as the
interval checker runs boxes over ``TransferPlan.lanes``.  Each XMM low
half lives in one place: in the states, or in a column of Python floats
with one entry per live lane, loaded and flushed with one bulk
``struct`` conversion each.  The hot shapes have lane forms beside
their bound steps (:func:`lane_steps`): ``movq $imm, xmm``, register
``movsd`` and register ``addsd``/``subsd``/``mulsd``, one list
operation per step.  Arithmetic canonicalizes NaN results at the
operation, as ``d2u_c`` does, so a column only ever holds a NaN
payload a data move carried in; moves copy floats, which carry every
64-bit pattern (signaling NaNs included) unchanged on the IEEE hosts
the JIT's float domain already assumes.  Every other instruction runs
as its bound step lane by lane, after the columns of the XMM registers
it names are flushed back to the states; a lane that signals leaves the
batch with its signal.  The high quad ``movq $imm`` zeroes is written
when its column is flushed.

Bound steps, lane steps and def sets are memoized on the instruction
(:meth:`~repro.x86.instruction.Instruction.memoize`): a module dict
keyed by instruction would hash the instruction on every lookup, and a
proposal looks up every slot of its suffix.
"""

from __future__ import annotations

import operator
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.x86 import scalar
from repro.x86.operands import Imm, Reg64, Xmm
from repro.x86.scalar import MASK64
from repro.x86.signals import Signal, SignalError

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
    """Bound step of one instruction, memoized on the instruction."""
    try:
        return instr._step
    except AttributeError:
        return instr.memoize("_step", _bind(instr))


def bound_steps(slots) -> tuple:
    """Bound steps for the non-UNUSED instructions of a slot sequence."""
    return tuple(step_of(instr) for instr in slots if not instr.is_unused)


# ---------------------------------------------------------------------------
# lane batches

# The canonical NaN (d2u_c's 0x7FF8000000000000) as a float.
_NAN_F = scalar.u2d(_NAN_BITS)


def _imm_lane(x: float, di: int):
    """``movq $imm, xmm``: every lane's low half := the immediate's
    pattern; the high quad it zeroes is written at flush."""

    def lane(m):
        m.cols[di] = [x] * m.n
        m.dirty[di] = m.zero_hi[di] = True

    return lane


def _movsd_lane(si: int, di: int):
    """Register ``movsd``: low-quad copy, high quad preserved."""

    def lane(m):
        cols = m.cols
        col = cols[si]
        cols[di] = col if col is not None else m.load(si)
        m.dirty[di] = True

    return lane


def _arith_lane(op, si: int, di: int):
    """Register ``addsd``/``subsd``/``mulsd``: dst.lo := dst.lo op src.lo.

    A NaN in any lane makes the column's sum NaN (so does ``inf - inf``
    inside the sum, which only costs the rescan); the rescan replaces
    each NaN result with the canonical one.
    """

    def lane(m, op=op, nan=_NAN_F):
        cols = m.cols
        b = cols[si]
        if b is None:
            b = m.load(si)
        a = cols[di]
        if a is None:
            a = m.load(di)
        out = list(map(op, a, b))
        total = sum(out)
        if total != total:
            out = [r if r == r else nan for r in out]
        cols[di] = out
        m.dirty[di] = True

    return lane


def _lane_form(instr) -> Optional[Callable]:
    """The lane form of ``instr``, or None when it runs as bound steps."""
    ops = instr.operands
    name = instr.opcode
    op = _INLINE_SD_BINOPS.get(name)
    if op is not None and isinstance(ops[0], Xmm):
        return _arith_lane(op, ops[0].index, ops[1].index)
    if name == "movsd" and isinstance(ops[0], Xmm) and isinstance(ops[1], Xmm):
        return _movsd_lane(ops[0].index, ops[1].index)
    if name == "movq" and isinstance(ops[0], Imm) and isinstance(ops[1], Xmm):
        return _imm_lane(scalar.u2d(ops[0].value), ops[1].index)
    return None


def lane_step_of(instr) -> tuple:
    """``(fn, operands, lane, named)`` of one instruction, memoized on it.

    ``fn(state, operands)`` is its bound step; ``lane`` its lane form
    (None when it has none); ``named`` the XMM registers a lane-by-lane
    run of the bound step needs flushed (empty when there is a lane
    form).  The subset has no implicit XMM operands, so the named
    registers are all the step can read or write.
    """
    try:
        return instr._lane
    except AttributeError:
        fn, ops = step_of(instr)
        lane = _lane_form(instr)
        named = () if lane is not None else tuple(sorted(
            {op.index for op in ops if isinstance(op, Xmm)}))
        return instr.memoize("_lane", (fn, ops, lane, named))


def lane_steps(slots) -> tuple:
    """Lane steps for the non-UNUSED instructions of a slot sequence."""
    return tuple(lane_step_of(instr) for instr in slots
                 if not instr.is_unused)


# Bulk struct conversions between a column's bits and its floats, per
# lane count (bounded by the largest test chunk).
_LANE_STRUCTS: Dict[int, tuple] = {}


def _lane_structs(n: int) -> tuple:
    entry = _LANE_STRUCTS.get(n)
    if entry is None:
        quads, doubles = struct.Struct(f"<{n}Q"), struct.Struct(f"<{n}d")
        entry = _LANE_STRUCTS[n] = (quads.pack, quads.unpack,
                                    doubles.pack, doubles.unpack)
    return entry


class _Lanes:
    """Machine states stepping through one program together.

    ``states[k]`` is live lane ``k``, which is batch position
    ``where[k]``.  ``cols[i]`` holds XMM register ``i``'s low halves as
    floats, one per live lane, or None while they live in the states.
    ``dirty[i]``: the column differs from the states; ``zero_hi[i]``:
    the states' high quads of ``i`` still have to be zeroed.  Both imply
    a column.
    """

    __slots__ = ("states", "where", "signals", "cols", "dirty", "zero_hi",
                 "n", "pack_q", "unpack_q", "pack_d", "unpack_d")

    def __init__(self, states: List):
        self.states = states  # replaced, never mutated, when lanes leave
        self.where = list(range(len(states)))
        self.signals: List[Optional[Signal]] = [None] * len(states)
        self.cols: List[Optional[Sequence[float]]] = [None] * 16
        self.dirty = [False] * 16
        self.zero_hi = [False] * 16
        self._resize()

    def _resize(self) -> None:
        self.n = len(self.states)
        (self.pack_q, self.unpack_q, self.pack_d,
         self.unpack_d) = _lane_structs(self.n)

    def load(self, i: int) -> Sequence[float]:
        """Gather register ``i``'s low halves into a column."""
        col = self.cols[i] = self.unpack_d(
            self.pack_q(*[state.xmm_lo[i] for state in self.states]))
        return col

    def flush(self, i: int) -> None:
        """Write column ``i`` back to the states and drop it."""
        col = self.cols[i]
        self.cols[i] = None
        if self.dirty[i]:
            self.dirty[i] = False
            for state, bits in zip(self.states,
                                   self.unpack_q(self.pack_d(*col))):
                state.xmm_lo[i] = bits
        if self.zero_hi[i]:
            self.zero_hi[i] = False
            for state in self.states:
                state.xmm_hi[i] = 0

    def step(self, fn: Callable, ops: tuple, named: tuple) -> None:
        """Run one bound step on every live lane; signalling lanes leave."""
        cols = self.cols
        for i in named:
            if cols[i] is not None:
                self.flush(i)
        failed = None
        for k, state in enumerate(self.states):
            try:
                fn(state, ops)
            except SignalError as exc:
                self.signals[self.where[k]] = exc.signal
                if failed is None:
                    failed = set()
                failed.add(k)
        if failed is not None:
            self._drop(failed)

    def _drop(self, failed: set) -> None:
        keep = [k for k in range(self.n) if k not in failed]
        self.states = [self.states[k] for k in keep]
        self.where = [self.where[k] for k in keep]
        cols = self.cols
        for i, col in enumerate(cols):
            if col is not None:
                cols[i] = [col[k] for k in keep]
        self._resize()

    def finish(self) -> None:
        for i, col in enumerate(self.cols):
            if col is not None:
                self.flush(i)


def run_lanes(steps: tuple, states: List) -> List[Optional[Signal]]:
    """Run :func:`lane_steps` on every state at once, one lane each.

    Returns each state's signal, or None where it ran clean; a clean
    state ends exactly as running the bound steps on it alone leaves it.
    The states must be distinct objects.
    """
    m = _Lanes(states)
    for fn, ops, lane, named in steps:
        if lane is not None:
            lane(m)
        else:
            m.step(fn, ops, named)
            if not m.n:
                break
    m.finish()
    return m.signals
