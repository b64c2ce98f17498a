"""Checkpointed prefix states for incremental suffix evaluation.

Every MCMC proposal edits at most one or two instructions of a loop-free
program, so the machine state reaching the first edited slot is identical
between a proposal and the program it was derived from.  This module
implements the prefix-state memoization that exploits it (the classic
superoptimizer trick — fast cost evaluation is what makes the whole
search go); ``CostFunction`` resumes from these checkpoints and runs
the rest of the program as bound steps (:mod:`repro.x86.stepper`) on
every backend:

* :func:`checkpoint_stride` — how often to checkpoint, auto-sized from
  program length (``~sqrt(n)`` balances snapshot cost against replayed
  suffix length).
* :func:`flags_live_in` — per-index flags liveness.  Checkpoints do not
  carry status flags, so the cost function's resume boundary (the
  largest multiple of the stride at or below the edit) steps down past
  any index where the suffix reads flags before writing them.
* :class:`Checkpoint` — a write-set-aware snapshot of one test's pooled
  machine state at a boundary (only the GP/XMM slots and sandbox pages
  the running program's prefix can have written are copied), or a fault
  sentinel when the prefix itself signals on that test.
* :class:`CheckpointStore` — a byte-bounded LRU over every test case's
  checkpoints.  Checkpoints are keyed by the *content* of the program
  prefix they were captured after, so a stale entry can never be applied
  to a program it does not match: invalidation is structural, and the
  store only has to bound memory.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.x86.liveness import uses_and_defs
from repro.x86.program import Program
from repro.x86.registers import GP64_NAMES, XMM_NAMES
from repro.x86.signals import Signal

# Checkpoints across all test cases share one byte budget; the store
# evicts least-recently-used entries past it.  Snapshots here are a few
# dozen ints (plus sandbox pages for store-heavy kernels), so the
# default comfortably holds thousands of tests' worth.
DEFAULT_STORE_BUDGET = 32 * 1024 * 1024

# Rough per-slot accounting for the byte budget: a captured 64-bit value
# costs a Python int plus a tuple slot.
_BYTES_PER_SLOT = 32
_BYTES_BASE = 96

_GP_INDEX = {name: i for i, name in enumerate(GP64_NAMES)}
_XMM_INDEX = {name: i for i, name in enumerate(XMM_NAMES)}


class PrefixKey(tuple):
    """A prefix-slots tuple that hashes itself at most once.

    Checkpoint dictionaries are keyed by prefix content, and one
    proposal evaluation looks its prefix up several times per test
    (checkpoint fetch, LRU touch, store insert).  Hashing a 30-slot
    tuple of instructions costs microseconds; caching the hash turns
    every lookup after the first into a dict probe.  The hash equals
    ``tuple.__hash__`` of the same elements, so these keys coexist with
    (and match) plain-tuple keys in the same dictionary.
    """

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = tuple.__hash__(self)
            self._hash = value
            return value


def checkpoint_stride(n_slots: int) -> int:
    """Checkpoint spacing for a program of ``n_slots`` slots (0 = none).

    A stride of ``~sqrt(n)`` keeps both the number of snapshots per test
    and the expected replayed suffix overhang at ``O(sqrt(n))``.
    Programs shorter than 4 slots are not worth checkpointing — the
    suffix saved rarely exceeds the snapshot/restore cost.
    """
    if n_slots < 4:
        return 0
    return max(2, int(round(math.sqrt(n_slots))))


def flags_live_in(program: Program) -> Tuple[bool, ...]:
    """Per-index flags liveness: ``out[i]`` is True when some instruction
    at ``>= i`` reads the status flags before any instruction writes them.

    Resuming execution at index ``i`` with ``out[i]`` True would need the
    flag values produced by the prefix, which checkpoints do not carry.
    """
    slots = program.slots
    out = [False] * (len(slots) + 1)
    live = False
    for i in range(len(slots) - 1, -1, -1):
        spec = slots[i].spec
        if spec.reads_flags:
            live = True
        elif spec.writes_flags:
            live = False
        out[i] = live
    return tuple(out)


def union_writes(a: tuple, b: tuple) -> tuple:
    """Union of two ``(gp, xmm_lo, xmm_hi, mem)`` write sets."""
    return (tuple(sorted(set(a[0]) | set(b[0]))),
            tuple(sorted(set(a[1]) | set(b[1]))),
            tuple(sorted(set(a[2]) | set(b[2]))),
            a[3] or b[3])


def _instr_writes(instr) -> tuple:
    """``(gp_indices, xmm_indices, writes_mem)`` defs of one instruction,
    memoized on it: ``program_writes`` runs once per proposal on the
    incremental path, and recomputing ``uses_and_defs`` for ~n slots
    dwarfed the work it was sizing."""
    try:
        return instr._writes
    except AttributeError:
        pass
    gp, xmm = set(), set()
    mem = False
    _uses, defs = uses_and_defs(instr)
    for name in defs:
        if name == "mem":
            mem = True
        elif name in _GP_INDEX:
            gp.add(_GP_INDEX[name])
        elif name in _XMM_INDEX:
            xmm.add(_XMM_INDEX[name])
    return instr.memoize("_writes", (frozenset(gp), frozenset(xmm), mem))


def program_writes(program: Program, start: int = 0,
                   stop: Optional[int] = None) -> tuple:
    """Conservative ``(gp, xmm_lo, xmm_hi, mem)`` write set of a slice.

    The JIT reports exact write sets from codegen; this liveness-based
    over-approximation (XMM defs count both halves) serves the vector
    backend and the bound-step promises and checkpoints, where any
    superset is safe for snapshot/restore.
    """
    gp, xmm = set(), set()
    mem = False
    for instr in program.slots[start:stop]:
        if instr.is_unused:
            continue
        gp_ids, xmm_ids, instr_mem = _instr_writes(instr)
        gp |= gp_ids
        xmm |= xmm_ids
        mem = mem or instr_mem
    xmm_sorted = tuple(sorted(xmm))
    return tuple(sorted(gp)), xmm_sorted, xmm_sorted, mem


class Checkpoint:
    """State of one test's pooled machine state at a prefix boundary.

    ``writes`` is the cumulative ``(gp_indices, xmm_lo_indices,
    xmm_hi_indices, writes_mem)`` write set of the prefix; only those
    slots (and, when ``writes_mem``, the writable sandbox pages) are
    captured, because everything else still holds the test's input
    values after a pooled reset.  A checkpoint with ``signal`` set is a
    fault sentinel: the prefix itself signalled on this test, so any
    program sharing the prefix signals identically without executing.
    """

    __slots__ = ("writes", "data", "signal", "nbytes")

    def __init__(self, writes: Optional[tuple], data: Optional[tuple],
                 signal: Optional[Signal], nbytes: int):
        self.writes = writes
        self.data = data
        self.signal = signal
        self.nbytes = nbytes

    @classmethod
    def capture(cls, state, writes: tuple) -> "Checkpoint":
        """Snapshot the named slots (and pages) of ``state``."""
        gp_idx, xl_idx, xh_idx, mem = writes
        data = state.snapshot_slots(gp_idx, xl_idx, xh_idx, mem)
        nbytes = _BYTES_BASE + _BYTES_PER_SLOT * (
            len(gp_idx) + len(xl_idx) + len(xh_idx))
        if data[3] is not None:
            nbytes += sum(len(image) for _seg, image in data[3])
        return cls(writes, data, None, nbytes)

    @classmethod
    def fault(cls, signal: Signal) -> "Checkpoint":
        """A sentinel recording that the prefix signals on this test."""
        return cls(None, None, signal, _BYTES_BASE)

    def apply(self, state) -> None:
        """Write the captured slots into ``state`` (a pooled, pristine
        state of the same test case this checkpoint was taken from)."""
        gp_idx, xl_idx, xh_idx, _mem = self.writes
        state.apply_slots(self.data, gp_idx, xl_idx, xh_idx)


class CheckpointStore:
    """Byte-bounded LRU over ``(test case, prefix)`` checkpoint entries.

    The store does not hold the checkpoints themselves — each
    :class:`~repro.x86.testcase.TestCase` keeps its own ``prefix ->
    Checkpoint`` dict for O(1) lookup — it tracks recency and total
    bytes, and deletes entries from the owning test on eviction.
    """

    def __init__(self, max_bytes: int = DEFAULT_STORE_BUDGET):
        self.max_bytes = max_bytes
        # (id(test), prefix) -> (test, nbytes); insertion order = LRU.
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.total_bytes = 0
        self.stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "stored": 0, "evictions": 0,
            "invalidated": 0,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def touch(self, test, prefix) -> None:
        key = (id(test), prefix)
        if key in self._entries:
            self._entries.move_to_end(key)

    def add(self, test, prefix, nbytes: int) -> None:
        key = (id(test), prefix)
        old = self._entries.pop(key, None)
        if old is not None:
            self.total_bytes -= old[1]
        self._entries[key] = (test, nbytes)
        self.total_bytes += nbytes
        self.stats["stored"] += 1
        while self.total_bytes > self.max_bytes and len(self._entries) > 1:
            (_ident, old_prefix), (old_test, old_bytes) = \
                self._entries.popitem(last=False)
            self.total_bytes -= old_bytes
            old_test._checkpoints.pop(old_prefix, None)
            self.stats["evictions"] += 1

    def remove(self, test, prefix, nbytes: int) -> None:
        if self._entries.pop((id(test), prefix), None) is not None:
            self.total_bytes -= nbytes
            self.stats["invalidated"] += 1

    def clear(self) -> None:
        for (_ident, prefix), (test, _nbytes) in self._entries.items():
            test._checkpoints.pop(prefix, None)
        self._entries.clear()
        self.total_bytes = 0
        for key in self.stats:
            self.stats[key] = 0


# The process-wide store every TestCase registers its checkpoints with.
STORE = CheckpointStore()


def checkpoint_store_stats() -> Dict[str, int]:
    """Counters plus current size/byte occupancy of the global store."""
    stats = dict(STORE.stats)
    stats["entries"] = len(STORE)
    stats["bytes"] = STORE.total_bytes
    stats["max_bytes"] = STORE.max_bytes
    return stats


def set_checkpoint_budget(max_bytes: int) -> None:
    """Resize the global store's byte budget (benchmark/test hook)."""
    STORE.max_bytes = max_bytes


def clear_checkpoint_store() -> None:
    """Drop every checkpoint and reset the counters (test hook)."""
    STORE.clear()
