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
from repro.x86 import checkpoint as _cp
from repro.x86.locations import Loc, MemLoc, parse_loc
from repro.x86.memory import Memory, Segment
from repro.x86.state import MachineState

LocLike = Union[str, Loc, MemLoc]


def _as_loc(loc: LocLike):
    return loc if isinstance(loc, (Loc, MemLoc)) else parse_loc(loc)


class TestCase:
    """Live-in values plus the initial memory image."""

    __test__ = False  # not a pytest test class, despite the name
    __slots__ = ("inputs", "segments", "_template", "_pooled", "_snapshot",
                 "_dirt", "_checkpoints")

    def __init__(self, inputs: Dict[LocLike, int],
                 segments: Sequence[Segment] = ()):
        self.inputs: Dict[Loc, int] = {_as_loc(k): v for k, v in inputs.items()}
        self.segments: Tuple[Segment, ...] = tuple(segments)
        self._template: Optional[MachineState] = None
        self._pooled: Optional[MachineState] = None
        self._snapshot: Optional[tuple] = None
        # What the pooled state's current holder may have modified:
        # None (nothing — state is pristine), "all" (unknown — full
        # restore needed), or a (gp, xmm_lo, xmm_hi, mem) write set
        # promised via pooled_state(writes).
        self._dirt = None
        # Prefix checkpoints for incremental suffix evaluation, keyed by
        # the exact instruction tuple of the prefix they were captured
        # after (content-addressed: valid for any program sharing that
        # prefix).  Memory-bounded via the global checkpoint.STORE LRU.
        self._checkpoints: Dict[tuple, object] = {}

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

    def pooled_state(self, writes: Optional[tuple] = None) -> MachineState:
        """This test's reusable machine state, reset in place.

        The first call builds the state (one :meth:`build_state` copy) and
        snapshots it; every later call restores the slots dirtied since
        then from the snapshot instead of allocating a fresh copy.  This
        is the evaluator's state pool: millions of proposal executions
        per search reuse one state per test case.

        ``writes`` is the caller's promise about what it will mutate
        before the next ``pooled_state`` call: the ``(gp_indices,
        xmm_lo_indices, xmm_hi_indices, writes_mem)`` write set of the
        one compiled program it is about to run (see the JIT's
        ``CompiledProgram.writes``).  The next call then resets just
        those slots.  Omit it to promise nothing — the next call does a
        full restore.

        Every reset also restores the status flags, which no write set
        names: the JIT and vector backends never write ``state.flags``,
        but bound steps and the emulator do, and every run on a pooled
        state must start with the test's pristine (all-clear) flags, as
        the JIT and vector prologues assume.

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
            # Precise write set promised by the previous holder: reset
            # only the slots that can actually differ from the snapshot,
            # plus the flags.  (state.restore_slots inlined — this runs
            # once per test per proposal evaluation.)
            gp_idx, xl_idx, xh_idx, mem = dirt
            snap_gp, snap_lo, snap_hi, snap_flags, mem_snapshot = \
                self._snapshot
            gp = pooled.gp
            for index in gp_idx:
                gp[index] = snap_gp[index]
            lo = pooled.xmm_lo
            for index in xl_idx:
                lo[index] = snap_lo[index]
            hi = pooled.xmm_hi
            for index in xh_idx:
                hi[index] = snap_hi[index]
            pooled.flags.update(snap_flags)
            if mem:
                pooled.mem.restore_writable(mem_snapshot)
        self._dirt = writes if writes is not None else "all"
        return pooled

    # ------------------------------------------------------------------
    # prefix checkpoints (incremental suffix evaluation)

    def get_checkpoint(self, prefix: tuple):
        """The checkpoint captured after executing ``prefix`` on this
        test, or None.  Counts a global-store hit/miss either way."""
        entry = self._checkpoints.get(prefix)
        if entry is None:
            _cp.STORE.stats["misses"] += 1
            return None
        _cp.STORE.stats["hits"] += 1
        _cp.STORE.touch(self, prefix)
        return entry

    def put_checkpoint(self, prefix: tuple, entry) -> None:
        """Register a captured checkpoint (may LRU-evict older ones)."""
        self._checkpoints[prefix] = entry
        _cp.STORE.add(self, prefix, entry.nbytes)

    def prune_checkpoints(self, slots: tuple) -> None:
        """Drop checkpoints whose prefix the current program no longer
        shares (called when the search accepts a new program)."""
        stale = [prefix for prefix in self._checkpoints
                 if slots[:len(prefix)] != prefix]
        for prefix in stale:
            entry = self._checkpoints.pop(prefix)
            _cp.STORE.remove(self, prefix, entry.nbytes)

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
        tc._checkpoints = {}
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
