"""Test cases: maps from live-in hardware locations to values.

A test case (Section 2.2) assigns a raw bit pattern to each live-in
location and provides the initial memory image (the sandbox segments).
Building a :class:`~repro.x86.state.MachineState` from a test case copies
only writable segments, so large read-only constant tables are shared
across the millions of executions a search performs.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.fp.ieee754 import double_to_bits, single_to_bits
from repro.x86.locations import Loc, MemLoc, parse_loc
from repro.x86.memory import Memory, Segment
from repro.x86.state import MachineState

LocLike = Union[str, Loc, MemLoc]


def _as_loc(loc: LocLike):
    return loc if isinstance(loc, (Loc, MemLoc)) else parse_loc(loc)


class TestCase:
    """Live-in values plus the initial memory image.

    A test case also holds the evaluator's reusable machine state for it
    (:meth:`pooled_state`).  Prefix checkpoints are not kept here: each
    ``CostFunction`` owns its own table, which dies with it.
    """

    __test__ = False  # not a pytest test class, despite the name
    __slots__ = ("inputs", "segments", "_template", "_pooled", "_snapshot",
                 "_dirt")

    def __init__(self, inputs: Dict[LocLike, int],
                 segments: Sequence[Segment] = ()):
        self.inputs: Dict[Loc, int] = {_as_loc(k): v for k, v in inputs.items()}
        self.segments: Tuple[Segment, ...] = tuple(segments)
        self._template: Optional[MachineState] = None
        self._pooled: Optional[MachineState] = None
        self._snapshot: Optional[tuple] = None
        # What the pooled state's current holder may have modified:
        # None (nothing — state is pristine), "mem" (its writable pages,
        # promised via pooled_state(writes_mem=True)) or "all" (unknown —
        # full restore needed).
        self._dirt = None

    @classmethod
    def from_values(cls, values: Dict[LocLike, float],
                    segments: Sequence[Segment] = ()) -> "TestCase":
        """Build from Python numbers, encoding by each location's type."""
        inputs: Dict[Loc, int] = {}
        for key, value in values.items():
            loc = _as_loc(key)
            inputs[loc] = encode_for(loc, value)
        return cls(inputs, segments)

    def template_state(self) -> MachineState:
        """The cached pristine template state for this test case.

        Shared and never reset: callers must treat it as read-only (the
        vector backend packs its lane arrays straight from templates and
        leaves them untouched).  Anything that executes a program needs
        :meth:`build_state` or :meth:`pooled_state` instead.
        """
        if self._template is None:
            mem = Memory(seg.copy() if seg.writable else seg
                         for seg in self.segments)
            state = MachineState(mem)
            for loc, bits in self.inputs.items():
                loc.write(state, bits)
            self._template = state
        return self._template

    def build_state(self) -> MachineState:
        """A fresh machine state initialized from this test case."""
        return self.template_state().copy()

    def pooled_state(self, writes_mem: Optional[bool] = None
                     ) -> MachineState:
        """This test's reusable machine state, reset in place.

        The first call builds the state (one :meth:`build_state` copy) and
        snapshots it; every later call restores what was dirtied since
        then from the snapshot instead of allocating a fresh copy.  This
        is the evaluator's state pool: millions of proposal executions
        per search reuse one state per test case.

        ``writes_mem`` is the caller's promise about what it will change
        before the next ``pooled_state`` call: False for nothing, True
        for the writable pages only.  A compiled program's live-out run
        (``CompiledProgram.run_live_outs``) keeps that promise with its
        ``writes_mem``: it leaves register files and flags alone and
        changes memory only when the program stores.  The next call then
        restores the pages, or nothing.  Omit the promise to promise
        nothing — the next call does a full restore, status flags
        included: bound steps and the emulator write ``state.flags``,
        and every run on a pooled state must start with the test's
        pristine (all-clear) flags, as the JIT and vector prologues
        assume.

        The returned state is only valid until the next ``pooled_state``
        call on this test case; callers that need an independent state
        (or run the same test twice concurrently) must use
        :meth:`build_state`.
        """
        pooled = self._pooled
        dirt = self._dirt
        if pooled is None:
            pooled = self._pooled = self.build_state()
            self._snapshot = pooled.snapshot()
        elif dirt == "all":
            pooled.restore(self._snapshot)
        elif dirt is not None:
            pooled.mem.restore_writable(self._snapshot[4])
        self._dirt = ("all" if writes_mem is None
                      else "mem" if writes_mem else None)
        return pooled

    def restored_state(self, image: tuple) -> MachineState:
        """This test's reusable machine state, reset in place to
        ``image`` instead of the pristine values.

        ``image`` is a :meth:`MachineState.snapshot` of this test's
        pooled state (a prefix checkpoint), so one
        :meth:`MachineState.restore` brings the state to the image's
        registers, flags and pages.  The pool is left fully dirty: the
        next :meth:`pooled_state` call does a full restore.  The same
        validity rule as :meth:`pooled_state` applies.
        """
        pooled = self._pooled
        if pooled is None:
            pooled = self._pooled = self.build_state()
            self._snapshot = pooled.snapshot()
        pooled.restore(image)
        self._dirt = "all"
        return pooled

    def value_of(self, loc: LocLike) -> int:
        return self.inputs[_as_loc(loc)]

    def replace(self, loc: LocLike, bits: int) -> "TestCase":
        """A copy with one live-in changed."""
        inputs = dict(self.inputs)
        inputs[_as_loc(loc)] = bits
        return TestCase._from_resolved(inputs, self.segments)

    @classmethod
    def _from_resolved(cls, inputs: Dict[Loc, int],
                       segments: Tuple[Segment, ...]) -> "TestCase":
        """Construct without re-normalizing keys (validation proposers
        create one test case per proposal; the ``__init__`` key
        resolution is pure overhead when every key is already a Loc)."""
        tc = cls.__new__(cls)
        tc.inputs = inputs
        tc.segments = segments
        tc._template = None
        tc._pooled = None
        tc._snapshot = None
        tc._dirt = None
        return tc

    def __repr__(self) -> str:
        ins = ", ".join(f"{loc}=0x{bits:x}" for loc, bits in self.inputs.items())
        return f"TestCase({ins})"


def encode_for(loc: Loc, value: float) -> int:
    """Encode a Python number as raw bits for a location's type."""
    if loc.ftype == "f64":
        return double_to_bits(float(value))
    if loc.ftype == "f32":
        return single_to_bits(float(value))
    width_mask = (1 << loc.width) - 1
    return int(value) & width_mask


def decode_from(loc: Loc, bits: int):
    """Decode a location's raw bits back to a Python number."""
    from repro.fp.ieee754 import bits_to_double, bits_to_single

    if loc.ftype == "f64":
        return bits_to_double(bits)
    if loc.ftype == "f32":
        return bits_to_single(bits)
    return bits


def uniform_testcases(
    rng: random.Random,
    count: int,
    ranges: Dict[LocLike, Tuple[float, float]],
    segments_factory: Optional[Callable[[], Sequence[Segment]]] = None,
) -> List[TestCase]:
    """Draw test cases with each live-in uniform over its value range.

    The ranges play the role of the user-specified ``[l_min, l_max]``
    bounds of Equation 16: they both restrict the optimization to the
    inputs the user cares about and keep pointer-valued inputs inside the
    sandbox.
    """
    resolved = {_as_loc(k): v for k, v in ranges.items()}
    cases = []
    for _ in range(count):
        values = {loc: rng.uniform(lo, hi) for loc, (lo, hi) in resolved.items()}
        segments = segments_factory() if segments_factory else ()
        cases.append(TestCase.from_values(values, segments))
    return cases
