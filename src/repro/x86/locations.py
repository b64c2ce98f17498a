"""Live-in/live-out locations.

The paper's test cases map *live-in hardware locations* to values, and
correctness is judged on the *live-out* locations ``l ∈ ℓ(T)``
(Section 2.2).  A :class:`Loc` names a register (or a slice of an XMM
register, since the aek kernels pass packed singles) together with the
type used to measure error:

* ``f64`` — low 64 bits interpreted as a double, ULP'-compared.
* ``f32`` — a 32-bit lane interpreted as a single, ULP'-compared.
* ``i64`` / ``i32`` — fixed-point values, compared by absolute distance
  (the original STOKE fixed-point error).

String grammar accepted by :func:`parse_loc`::

    rax            -> 64-bit integer register
    eax            -> 32-bit integer register
    xmm0           -> xmm0:d (low double)
    xmm0:d         -> low 64 bits as a double
    xmm0:hd        -> high 64 bits as a double
    xmm0:s0 .. s3  -> 32-bit single lanes, s0 = bits 31:0

Memory live-outs are expressed as :class:`MemLoc` (segment, offset, type).

Locations key the live-in dicts of test cases, so each hashes once: the
first ``hash`` is kept on the object, as :class:`~repro.x86.instruction.
Instruction` keeps its own.  :func:`parse_loc` returns one object per
location whatever its spelling, so the keys of dicts built from parsed
locations match by identity, without the dataclass ``__eq__``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

from repro.x86.registers import GP32_INDEX, GP64_INDEX, XMM_INDEX
from repro.x86.scalar import MASK32, MASK64
from repro.x86.state import MachineState


@dataclass(frozen=True)
class Loc:
    """A register location with bit-slice and value type."""

    reg: str  # canonical 64-bit GP name or xmm name
    lane: int  # for xmm: lane index in units of `width`; 0 for GP
    width: int  # 32 or 64
    ftype: str  # 'f64' | 'f32' | 'i64' | 'i32'

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            return _cache_hash(self)

    def __getstate__(self):
        return _fields_of(self)

    def __setstate__(self, state) -> None:
        _set_fields(self, state)

    def __str__(self) -> str:
        if self.reg in XMM_INDEX:
            if self.ftype == "f64":
                return f"{self.reg}:d" if self.lane == 0 else f"{self.reg}:hd"
            return f"{self.reg}:s{self.lane}"
        return self.reg if self.width == 64 else _GP32_OF[self.reg]

    def read(self, state: MachineState) -> int:
        """Extract the location's raw bits from a machine state."""
        if self.reg in XMM_INDEX:
            i = XMM_INDEX[self.reg]
            if self.width == 64:
                return state.xmm_lo[i] if self.lane == 0 else state.xmm_hi[i]
            quad = state.xmm_lo[i] if self.lane < 2 else state.xmm_hi[i]
            return (quad >> (32 * (self.lane & 1))) & MASK32
        value = state.gp[GP64_INDEX[self.reg]]
        return value & (MASK32 if self.width == 32 else MASK64)

    def write(self, state: MachineState, bits: int) -> None:
        """Inject raw bits into a machine state (used to set live-ins)."""
        if self.reg in XMM_INDEX:
            i = XMM_INDEX[self.reg]
            if self.width == 64:
                if self.lane == 0:
                    state.xmm_lo[i] = bits & MASK64
                else:
                    state.xmm_hi[i] = bits & MASK64
                return
            shift = 32 * (self.lane & 1)
            mask = MASK32 << shift
            if self.lane < 2:
                state.xmm_lo[i] = (state.xmm_lo[i] & ~mask) | ((bits & MASK32) << shift)
            else:
                state.xmm_hi[i] = (state.xmm_hi[i] & ~mask) | ((bits & MASK32) << shift)
            return
        i = GP64_INDEX[self.reg]
        if self.width == 32:
            state.gp[i] = bits & MASK32
        else:
            state.gp[i] = bits & MASK64


@dataclass(frozen=True)
class MemLoc:
    """A memory live-out: ``width``-bit value at ``segment[offset]``."""

    segment: str
    offset: int
    ftype: str  # 'f64' | 'f32' | 'i64' | 'i32'

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            return _cache_hash(self)

    def __getstate__(self):
        return _fields_of(self)

    def __setstate__(self, state) -> None:
        _set_fields(self, state)

    @property
    def width(self) -> int:
        return 64 if self.ftype.endswith("64") else 32

    def __str__(self) -> str:
        return f"[{self.segment}+{self.offset}]:{self.ftype}"

    def read(self, state: MachineState) -> int:
        seg = state.mem.segment(self.segment)
        size = self.width // 8
        return int.from_bytes(seg.data[self.offset : self.offset + size], "little")

    def write(self, state: MachineState, bits: int) -> None:
        seg = state.mem.segment(self.segment)
        size = self.width // 8
        mask = (1 << self.width) - 1
        seg.data[self.offset : self.offset + size] = (bits & mask).to_bytes(
            size, "little"
        )


def _cache_hash(loc) -> int:
    """Compute the hash the dataclass would, and keep it on ``loc``."""
    value = hash(_fields_of(loc))
    object.__setattr__(loc, "_hash", value)
    return value


def _fields_of(loc) -> tuple:
    # The pickled state: field values only.  A cached hash is of this
    # process's string hashes, which differ in the parallel-search and
    # job processes a location is sent to.
    return tuple(getattr(loc, f.name) for f in fields(loc))


def _set_fields(loc, state: tuple) -> None:
    for f, value in zip(fields(loc), state):
        object.__setattr__(loc, f.name, value)


def make_reader(loc) -> "callable":
    """Compile a location into a fast ``state -> bits`` closure.

    :meth:`Loc.read` re-resolves the register kind, index, and lane on
    every call; the evaluator reads every live-out location once per test
    case per proposal, so the Runner precompiles one closure per location
    with all of that resolution burned in.  Must return exactly the bits
    ``loc.read(state)`` returns.
    """
    if isinstance(loc, MemLoc):
        name = loc.segment
        start, end = loc.offset, loc.offset + loc.width // 8

        def read_mem(state, _name=name, _start=start, _end=end):
            return int.from_bytes(
                state.mem.segment(_name).data[_start:_end], "little")

        return read_mem
    if loc.reg in XMM_INDEX:
        i = XMM_INDEX[loc.reg]
        if loc.width == 64:
            if loc.lane == 0:
                return lambda state, _i=i: state.xmm_lo[_i]
            return lambda state, _i=i: state.xmm_hi[_i]
        shift = 32 * (loc.lane & 1)
        if loc.lane < 2:
            return lambda state, _i=i, _s=shift: \
                (state.xmm_lo[_i] >> _s) & MASK32
        return lambda state, _i=i, _s=shift: \
            (state.xmm_hi[_i] >> _s) & MASK32
    i = GP64_INDEX[loc.reg]
    if loc.width == 32:
        return lambda state, _i=i: state.gp[_i] & MASK32
    return lambda state, _i=i: state.gp[_i] & MASK64


_GP32_OF = {name64: name32 for name32, name64 in zip(
    ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
     "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d"),
    ("rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
     "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15"),
)}

_GP32_TO_64 = {v: k for k, v in _GP32_OF.items()}


# parse_loc's results by text, and the one object of each location.
# Texts can come from outside (certificates, job payloads), so past
# _PARSED_MAX distinct texts a parse returns a fresh, equal object.
_PARSED: Dict[str, object] = {}
_INTERNED: Dict[object, object] = {}
_PARSED_MAX = 4096


def parse_loc(text: str):
    """Parse the location grammar described in the module docstring.

    Also accepts the ``str(MemLoc)`` form ``[segment+offset]:ftype``, so
    every location round-trips through its string rendering (the
    verification certificates serialize locations as strings).  Equal
    locations come back as one object, whatever their spelling:
    ``parse_loc("xmm0") is parse_loc("xmm0:d")``.
    """
    loc = _PARSED.get(text)
    if loc is None:
        loc = _parse(text)
        if len(_PARSED) < _PARSED_MAX:
            loc = _PARSED[text] = _INTERNED.setdefault(loc, loc)
    return loc


def _parse(text: str):
    text = text.strip()
    if text.startswith("["):
        body, bracket, spec = text.partition("]")
        segment, plus, offset = body[1:].partition("+")
        ftype = spec.lstrip(":") or "f64"
        if not bracket or not plus or not segment or \
                ftype not in ("f64", "f32", "i64", "i32"):
            raise ValueError(f"bad memory location: {text!r}")
        return MemLoc(segment, int(offset), ftype)
    if ":" in text:
        reg, spec = text.split(":", 1)
    else:
        reg, spec = text, None
    reg = reg.lstrip("%")
    if reg in XMM_INDEX:
        if spec is None or spec == "d":
            return Loc(reg, lane=0, width=64, ftype="f64")
        if spec == "hd":
            return Loc(reg, lane=1, width=64, ftype="f64")
        if spec in ("s0", "s1", "s2", "s3"):
            return Loc(reg, lane=int(spec[1]), width=32, ftype="f32")
        if spec == "i":
            return Loc(reg, lane=0, width=64, ftype="i64")
        raise ValueError(f"bad xmm location spec: {text!r}")
    if reg in GP64_INDEX:
        ftype = "i64" if spec is None or spec == "i64" else spec
        if ftype not in ("i64", "f64"):
            raise ValueError(f"bad GP location spec: {text!r}")
        return Loc(reg, lane=0, width=64, ftype=ftype)
    if reg in GP32_INDEX:
        return Loc(_GP32_TO_64[reg], lane=0, width=32, ftype="i32")
    raise ValueError(f"unknown location: {text!r}")
