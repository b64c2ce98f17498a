"""JIT backend: compile a program to one straight-line Python function.

The paper's implementation replaced STOKE's x86-64 emulator with a JIT
assembler and gained two orders of magnitude in test-case throughput
(Section 5.1).  This module is the analogous substitution for our
simulator, and earns its speedup the same way a real JIT does — by
compiling values into the host's native representation:

* A :class:`Program` is translated once into Python source and
  ``exec``-compiled; the function is reused for every test case.
* The code generator performs **static representation tracking**: each
  XMM half is known, at every program point, to be held either as a raw
  bit pattern (``b``), a native Python float (``d``), or a pair of
  widened singles (``s``).  Floating-point arithmetic compiles to native
  float operators (Python floats *are* IEEE doubles), and conversions are
  emitted only at representation boundaries (bit-level instructions,
  loads/stores, materialization at the end).  Straight-line code makes
  the tracking exact — there are no joins.

Bit-exactness is preserved for every 64-bit input pattern: float objects
carry finite values, infinities, signed zeros, and NaN payloads (widened
by hand) losslessly; arithmetic NaN results are canonicalized at the
float->bits boundary exactly as the emulator's helpers canonicalize them
(see scalar.d2u_c).  A hypothesis differential test plus an 8000-program
NaN-adversarial fuzz check the two backends agree bit-for-bit.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.x86 import scalar
from repro.x86.emulator import Outcome
from repro.x86.locations import MemLoc
from repro.x86.operands import Imm, Mem, Operand, Reg32, Reg64, Xmm
from repro.x86.program import Program
from repro.x86.registers import GP64_INDEX, XMM_INDEX
from repro.x86.signals import SignalError
from repro.x86.state import MachineState

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF


def _jit_globals() -> Dict[str, object]:
    env = {
        name: getattr(scalar, name)
        for name in dir(scalar)
        if not name.startswith("_") and callable(getattr(scalar, name))
    }
    env["SignalError"] = SignalError
    env["float"] = float
    # Bound struct methods for the inline bits<->double reinterpretation
    # exprs the code generator emits on its hottest paths (u2d / d2u_c
    # semantics without the Python call frame per conversion).
    env["pack_d"] = scalar._PACK_D.pack
    env["pack_q"] = scalar._PACK_Q.pack
    env["unpack_d"] = scalar._PACK_D.unpack
    env["unpack_q"] = scalar._PACK_Q.unpack
    env["NAN_BITS"] = scalar._NAN_BITS
    env["from_bytes"] = int.from_bytes
    env["__builtins__"] = {}
    return env


_GLOBALS = _jit_globals()


def float_literal(value: float) -> Optional[str]:
    """A source literal that reproduces ``value`` exactly, or None.

    ``repr`` round-trips all finite doubles (including -0.0 and
    denormals); infinities and NaNs have no literal form and callers fall
    back to the bits representation.
    """
    if math.isinf(value) or math.isnan(value):
        return None
    return repr(value)


class _Half:
    """Codegen-time knowledge about one XMM half."""

    __slots__ = ("valid", "dirty", "loaded")

    def __init__(self):
        self.valid: Set[str] = set()  # subset of {'b', 'd', 's'}
        self.dirty = False
        self.loaded = False


class _Ctx:
    """Representation-tracking code generation context."""

    def __init__(self):
        self.lines: List[str] = []
        self._ntemp = 0
        self.gp_loaded: Set[int] = set()
        self.gp_dirty: Set[int] = set()
        self.halves: Dict[Tuple[int, str], _Half] = {}

    # -- infrastructure ----------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def temp(self) -> str:
        name = f"t{self._ntemp}"
        self._ntemp += 1
        return name

    def _half(self, index: int, part: str) -> _Half:
        key = (index, part)
        if key not in self.halves:
            self.halves[key] = _Half()
        return self.halves[key]

    @staticmethod
    def _var(index: int, part: str, repr_tag: str, lane: int = 0) -> str:
        suffix = f"s{lane}" if repr_tag == "s" else repr_tag
        return f"x{index}{part}{suffix}"

    # -- general-purpose registers (always bit patterns) ---------------------

    def gp(self, index: int) -> str:
        if index not in self.gp_loaded:
            self.emit(f"r{index} = gp[{index}]")
            self.gp_loaded.add(index)
        return f"r{index}"

    def set_gp(self, index: int, expr: str) -> None:
        self.gp_loaded.add(index)
        self.gp_dirty.add(index)
        self.emit(f"r{index} = {expr}")

    # -- XMM halves ----------------------------------------------------------

    def _ensure_loaded(self, index: int, part: str) -> None:
        half = self._half(index, part)
        if not half.loaded:
            array = "xl" if part == "l" else "xh"
            self.emit(f"{self._var(index, part, 'b')} = {array}[{index}]")
            half.loaded = True
            half.valid = {"b"}

    def bits(self, index: int, part: str = "l") -> str:
        """The half as a raw 64-bit pattern."""
        half = self._half(index, part)
        self._ensure_loaded(index, part)
        var = self._var(index, part, "b")
        if "b" not in half.valid:
            if "d" in half.valid:
                # A d-only half holds an arithmetic result; NaN payloads
                # canonicalize at this boundary (scalar.d2u_c inlined —
                # this conversion runs once per dirty half per test).
                d = self._var(index, part, "d")
                self.emit(f"{var} = NAN_BITS if {d} != {d} "
                          f"else unpack_q(pack_d({d}))[0]")
            else:  # 's'
                s0 = self._var(index, part, "s", 0)
                s1 = self._var(index, part, "s", 1)
                self.emit(f"{var} = f2u({s0}) | (f2u({s1}) << 32)")
            half.valid.add("b")
        return var

    def f64(self, index: int, part: str = "l") -> str:
        """The half as a native float."""
        half = self._half(index, part)
        self._ensure_loaded(index, part)
        var = self._var(index, part, "d")
        if "d" not in half.valid:
            # Inline u2d: every bits var is 64-bit-masked by construction
            # (state slots and operand readers only hold masked values),
            # so the slower masking helper is not needed here.
            self.emit(f"{var} = unpack_d(pack_q({self.bits(index, part)}))[0]")
            half.valid.add("d")
        return var

    def f32(self, index: int, lane: int) -> str:
        """One 32-bit lane (0-3) as a widened single."""
        part = "l" if lane < 2 else "h"
        sub = lane % 2
        half = self._half(index, part)
        self._ensure_loaded(index, part)
        var = self._var(index, part, "s", sub)
        if "s" not in half.valid:
            bits = self.bits(index, part)
            s0 = self._var(index, part, "s", 0)
            s1 = self._var(index, part, "s", 1)
            self.emit(f"{s0} = u2f32({bits} & 0x{_M32:x})")
            self.emit(f"{s1} = u2f32({bits} >> 32)")
            half.valid.add("s")
        return var

    def _set(self, index: int, part: str, repr_tag: str) -> None:
        half = self._half(index, part)
        half.loaded = True
        half.dirty = True
        half.valid = {repr_tag}

    def set_bits(self, index: int, expr: str, part: str = "l") -> None:
        self.emit(f"{self._var(index, part, 'b')} = {expr}")
        self._set(index, part, "b")

    def set_f64(self, index: int, expr: str, part: str = "l") -> None:
        self.emit(f"{self._var(index, part, 'd')} = {expr}")
        self._set(index, part, "d")

    def set_lanes(self, index: int, expr0: str, expr1: str,
                  part: str = "l") -> None:
        """Set both 32-bit lanes of a half from widened-single exprs."""
        s0 = self._var(index, part, "s", 0)
        s1 = self._var(index, part, "s", 1)
        if expr1 == s1:
            self.emit(f"{s0} = {expr0}")
        elif expr0 == s0:
            self.emit(f"{s1} = {expr1}")
        else:
            self.emit(f"{s0}, {s1} = {expr0}, {expr1}")
        self._set(index, part, "s")

    def set_lane(self, index: int, lane: int, expr: str) -> None:
        """Set one lane, preserving the other (scalar-single writes)."""
        part = "l" if lane < 2 else "h"
        sub = lane % 2
        other = self.f32(index, lane ^ 1) if lane < 2 else \
            self.f32(index, 2 + ((lane - 2) ^ 1))
        var = self._var(index, part, "s", sub)
        self.emit(f"{var} = {expr}")
        # `other` was materialized above, so both lane vars are now valid.
        del other
        self._set(index, part, "s")

    def has_repr(self, index: int, part: str, tag: str) -> bool:
        """Whether a half currently holds a valid ``tag`` representation."""
        half = self._half(index, part)
        return half.loaded and tag in half.valid

    def copy_half(self, dst: int, dst_part: str, src: int,
                  src_part: str) -> None:
        """Copy a half, transferring whatever representation is cheap.

        Bits take priority so raw patterns (NaN payloads included) copy
        exactly; the float representations are used only when the source
        holds an arithmetic result with no bits form.
        """
        if dst == src and dst_part == src_part:
            return
        src_half = self._half(src, src_part)
        self._ensure_loaded(src, src_part)
        if "b" in src_half.valid:
            self.set_bits(dst, self._var(src, src_part, "b"), dst_part)
        elif "d" in src_half.valid:
            self.set_f64(dst, self._var(src, src_part, "d"), dst_part)
        else:
            self.set_lanes(dst, self._var(src, src_part, "s", 0),
                           self._var(src, src_part, "s", 1), dst_part)

    # -- memory ---------------------------------------------------------------

    def addr(self, op: Mem) -> str:
        expr = self.gp(op.base)
        if op.index is not None:
            expr += f" + {self.gp(op.index)}*{op.scale}"
        if op.disp:
            expr += f" + {op.disp}" if op.disp > 0 else f" - {-op.disp}"
        if op.index is not None or op.disp:
            return f"(({expr}) & 0x{_M64:x})"
        return expr

    # -- operand readers --------------------------------------------------------

    def src_bits64(self, op: Operand) -> str:
        if isinstance(op, Xmm):
            return self.bits(op.index, "l")
        if isinstance(op, Reg64):
            return self.gp(op.index)
        if isinstance(op, Imm):
            return f"0x{op.value & _M64:x}"
        if isinstance(op, Mem):
            return f"mem.load8({self.addr(op)})"
        raise TypeError(f"cannot read 64 bits from {op!r}")

    def src_bits32(self, op: Operand) -> str:
        if isinstance(op, Xmm):
            return f"({self.bits(op.index, 'l')} & 0x{_M32:x})"
        if isinstance(op, (Reg64, Reg32)):
            return f"({self.gp(op.index)} & 0x{_M32:x})"
        if isinstance(op, Imm):
            return f"0x{op.value & _M32:x}"
        if isinstance(op, Mem):
            return f"mem.load4({self.addr(op)})"
        raise TypeError(f"cannot read 32 bits from {op!r}")

    def src_f64(self, op: Operand) -> str:
        if isinstance(op, Xmm):
            return self.f64(op.index, "l")
        if isinstance(op, Imm):
            literal = float_literal(scalar.u2d(op.value & _M64))
            if literal is not None:
                return literal
            return f"u2d(0x{op.value & _M64:x})"
        if isinstance(op, Mem):
            return f"unpack_d(pack_q(mem.load8({self.addr(op)})))[0]"
        if isinstance(op, Reg64):
            return f"unpack_d(pack_q({self.gp(op.index)}))[0]"
        raise TypeError(f"cannot read a double from {op!r}")

    def src_f32(self, op: Operand) -> str:
        if isinstance(op, Xmm):
            return self.f32(op.index, 0)
        if isinstance(op, Imm):
            literal = float_literal(scalar.u2f(op.value & _M32))
            if literal is not None:
                return literal
            return f"u2f32(0x{op.value & _M32:x})"
        if isinstance(op, Mem):
            return f"u2f32(mem.load4({self.addr(op)}))"
        if isinstance(op, (Reg64, Reg32)):
            return f"u2f32({self.gp(op.index)} & 0x{_M32:x})"
        raise TypeError(f"cannot read a single from {op!r}")

    def src128_bits(self, op: Operand) -> Tuple[str, str]:
        if isinstance(op, Xmm):
            return self.bits(op.index, "l"), self.bits(op.index, "h")
        if isinstance(op, Mem):
            lo, hi = self.temp(), self.temp()
            self.emit(f"{lo}, {hi} = mem.load16({self.addr(op)})")
            return lo, hi
        raise TypeError(f"cannot read 128 bits from {op!r}")

    def src_f64_halves(self, op: Operand) -> Tuple[str, str]:
        if isinstance(op, Xmm):
            return self.f64(op.index, "l"), self.f64(op.index, "h")
        if isinstance(op, Mem):
            base = self.temp()
            self.emit(f"{base} = {self.addr(op)}")
            return (f"u2d(mem.load8({base}))",
                    f"u2d(mem.load8({base} + 8))")
        raise TypeError(f"cannot read 128 bits from {op!r}")

    def src_f32_lanes(self, op: Operand) -> Tuple[str, str, str, str]:
        if isinstance(op, Xmm):
            return tuple(self.f32(op.index, lane) for lane in range(4))
        if isinstance(op, Mem):
            base = self.temp()
            self.emit(f"{base} = {self.addr(op)}")
            return tuple(f"u2f32(mem.load4({base} + {4 * k}))"
                         if k else f"u2f32(mem.load4({base}))"
                         for k in range(4))
        raise TypeError(f"cannot read 128 bits from {op!r}")


def _codegen_body(program: Program, comments: bool = False) -> _Ctx:
    """The representation-tracking context after a program's body."""
    ctx = _Ctx()
    for instr in program.slots:
        if instr.is_unused:
            continue
        if comments:
            ctx.emit(f"# {instr}")
        instr.spec.emit_fn(ctx, instr.operands)
    return ctx


def _codegen(program: Program, comments: bool = False
             ) -> Tuple[List[str], List[str]]:
    """Generate (body, epilogue) for a program's write-back function.

    The body computes every live value; the epilogue writes dirty
    registers back into the ``gp``/``xl``/``xh`` arrays.
    """
    ctx = _codegen_body(program, comments)
    epilogue: List[str] = []
    for index in sorted(ctx.gp_dirty):
        epilogue.append(f"gp[{index}] = r{index}")
    for (index, part), half in sorted(ctx.halves.items()):
        if half.dirty:
            # bits() may emit conversion lines; they land in ctx.lines
            # (the body) before the body is rendered below.
            body_var = ctx.bits(index, part)
            array = "xl" if part == "l" else "xh"
            epilogue.append(f"{array}[{index}] = {body_var}")
    return ctx.lines, epilogue


def _live_out_expr(ctx: _Ctx, loc) -> str:
    """An expression for ``loc``'s bits after the body: exactly what
    :func:`~repro.x86.locations.make_reader` would read from a state the
    write-back epilogue had written."""
    if isinstance(loc, MemLoc):
        start = loc.offset
        return (f"from_bytes(mem.segment({loc.segment!r})"
                f".data[{start}:{start + loc.width // 8}], 'little')")
    if loc.reg in XMM_INDEX:
        index = XMM_INDEX[loc.reg]
        if loc.width == 64:
            return ctx.bits(index, "l" if loc.lane == 0 else "h")
        bits = ctx.bits(index, "l" if loc.lane < 2 else "h")
        shift = 32 * (loc.lane & 1)
        return f"(({bits} >> {shift}) & 0x{_M32:x})"
    mask = _M32 if loc.width == 32 else _M64
    return f"({ctx.gp(GP64_INDEX[loc.reg])} & 0x{mask:x})"


def generate_live_out_source(program: Program, live_outs: Sequence,
                             name: str = "__kernel_outs") -> str:
    """Translate a program to a function returning its live-outs.

    The generated function runs the kernel body once per machine state
    in ``states`` and returns one ``(values, signal)`` pair per state:
    the live-out bit patterns in ``live_outs`` order and None, or None
    and the signal.  It has no write-back epilogue, so every register
    file is left as it was; memory stores land in the state's ``mem``
    as usual, and a ``MemLoc`` is read from it after the body.  Only
    the arrays the body and the reads name are loaded from a state.
    """
    ctx = _codegen_body(program)
    exprs = [_live_out_expr(ctx, loc) for loc in live_outs]
    values = "(" + "".join(f"{expr}, " for expr in exprs) + ")"
    text = "\n".join(ctx.lines) + values
    loads = [f"{var} = __s.{attr}" for var, attr, use in (
        ("gp", "gp", "gp["), ("xl", "xmm_lo", "xl["),
        ("xh", "xmm_hi", "xh["), ("mem", "mem", "mem.")) if use in text]
    lines = [f"def {name}(states):", "    __out = []",
             "    for __s in states:"]
    lines += [f"        {line}" for line in loads]
    lines += ["        try:", f"            {_PROLOGUE}"]
    lines += [f"            {line}" for line in ctx.lines]
    lines += [
        f"            __out.append(({values}, None))",
        "        except SignalError as __exc:",
        "            __out.append((None, __exc.signal))",
        "    return __out",
    ]
    return "\n".join(lines) + "\n"


# The status flags the subset's cmp/test/ucomis* instructions define;
# initialized per execution, never read back (they are JIT-internal).
_PROLOGUE = "fz = fc = fs = fo = fp = 0"


def _render_scalar(body: List[str], epilogue: List[str],
                   name: str) -> str:
    lines = [f"def {name}(gp, xl, xh, mem):", f"    {_PROLOGUE}"]
    lines += [f"    {line}" for line in body + epilogue]
    return "\n".join(lines) + "\n"


def generate_source(program: Program, name: str = "__kernel",
                    comments: bool = False) -> str:
    """Translate a program to the source of one Python function.

    ``comments=True`` annotates each instruction's statements with the
    assembly line (useful for inspection; the search leaves it off since
    comment tokens measurably slow ``compile``).
    """
    body, epilogue = _codegen(program, comments=comments)
    return _render_scalar(body, epilogue, name)


class CompiledProgram:
    """A program compiled to reusable Python functions.

    Two entry points share one code-generated body: :meth:`run` writes
    every register the program dirtied back into a state (for callers
    that read whole states), and :meth:`run_live_outs` runs a batch of
    states and returns their live-out values instead, leaving the
    register files alone.  ``writes_mem`` says whether the program can
    store to memory, the one part of a state :meth:`run_live_outs`
    changes.
    """

    __slots__ = ("program", "source", "writes_mem", "_fn", "_outs_fns",
                 "_outs_key", "_outs_fn")

    def __init__(self, program: Program):
        self.program = program
        body, epilogue = _codegen(program)
        self.writes_mem = any("mem.store" in line for line in body)
        self.source = _render_scalar(body, epilogue, "__kernel")
        code = compile(self.source, "<jit>", "exec")
        env: Dict[str, object] = {}
        exec(code, _GLOBALS, env)  # noqa: S102
        self._fn = env["__kernel"]
        # Live-out entry points by live-out tuple, compiled on first use,
        # and the last one used: this object is shared through the
        # compile cache by Runners whose live-outs differ.
        self._outs_fns: Dict[tuple, object] = {}
        self._outs_key: Optional[tuple] = None
        self._outs_fn = None

    def run(self, state: MachineState) -> Outcome:
        """Execute on a machine state in place.

        Status flags are JIT-internal and are not written back to
        ``state.flags``; they are never live-out in this system.
        """
        try:
            self._fn(state.gp, state.xmm_lo, state.xmm_hi, state.mem)
        except SignalError as exc:
            return Outcome(signal=exc.signal)
        return Outcome()

    def run_live_outs(self, states: "Sequence[MachineState]",
                      live_outs: tuple) -> List[tuple]:
        """Execute on every state and return its live-outs.

        Returns one ``(values, signal)`` pair per state, aligned with
        ``states``: the bit patterns of the ``live_outs`` tuple's
        locations and None, or None and the signal.  The values are
        those :meth:`run` followed by
        :func:`~repro.x86.locations.make_reader` would give, but no
        register is written back: ``gp``, ``xmm_lo``, ``xmm_hi`` and
        ``flags`` are left as they were, and only the program's memory
        stores change a state.  The entry point for a live-out tuple is
        compiled on its first call (see
        :func:`generate_live_out_source`).
        """
        if live_outs is self._outs_key:
            return self._outs_fn(states)
        fn = self._outs_fns.get(live_outs)
        if fn is None:
            code = compile(generate_live_out_source(self.program, live_outs),
                           "<jit-outs>", "exec")
            env: Dict[str, object] = {}
            exec(code, _GLOBALS, env)  # noqa: S102
            fn = self._outs_fns[live_outs] = env["__kernel_outs"]
        self._outs_key, self._outs_fn = live_outs, fn
        return fn(states)


# Bounded LRU over immutable program values.  Like CostFunction._cache,
# eviction is one-at-a-time from the cold end: wiping the whole cache at
# capacity used to stall the search on a compile storm right when the
# chain was deep into a long run.
_COMPILE_CACHE: "OrderedDict[Program, CompiledProgram]" = OrderedDict()
_COMPILE_CACHE_MAX = 8192
_COMPILE_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def compile_program(program: Program) -> CompiledProgram:
    """Compile a program for repeated execution (memoized).

    Compilation results are cached on the immutable program value: a
    process that prepares one program many times (the target of every
    search chain and slow check on one kernel) compiles it once.
    """
    cached = _COMPILE_CACHE.get(program)
    if cached is not None:
        _COMPILE_CACHE.move_to_end(program)
        _COMPILE_CACHE_STATS["hits"] += 1
        return cached
    _COMPILE_CACHE_STATS["misses"] += 1
    compiled = CompiledProgram(program)
    while len(_COMPILE_CACHE) >= _COMPILE_CACHE_MAX:
        _COMPILE_CACHE.popitem(last=False)
        _COMPILE_CACHE_STATS["evictions"] += 1
    _COMPILE_CACHE[program] = compiled
    return compiled


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss/eviction counters and current size of the compile cache."""
    stats = dict(_COMPILE_CACHE_STATS)
    stats["size"] = len(_COMPILE_CACHE)
    stats["max_size"] = _COMPILE_CACHE_MAX
    return stats


def clear_compile_cache() -> None:
    """Drop all cached compilations and reset the counters (test hook)."""
    _COMPILE_CACHE.clear()
    for key in _COMPILE_CACHE_STATS:
        _COMPILE_CACHE_STATS[key] = 0
