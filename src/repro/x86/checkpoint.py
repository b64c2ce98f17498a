"""Checkpointed prefix states for incremental suffix evaluation.

Every MCMC proposal edits at most one or two instructions of a loop-free
program, so the machine state reaching the first edited slot is identical
between a proposal and the program it was derived from.  This module
holds the pieces of the prefix-state memoization that exploits it (the
classic superoptimizer trick — fast cost evaluation is what makes the
whole search go); ``CostFunction`` owns the checkpoints themselves, one
``boundary -> Checkpoint`` table per test anchored on the chain's
current program, resumes from them and runs the rest of the program as
bound steps (:mod:`repro.x86.stepper`) on every backend:

* :func:`checkpoint_stride` — how often to checkpoint, auto-sized from
  program length (``~sqrt(n)`` balances snapshot cost against replayed
  suffix length).  Every stride multiple is a resume boundary.
* :class:`Checkpoint` — one test's whole machine state at a boundary
  (:meth:`~repro.x86.state.MachineState.snapshot`: register files,
  status flags and writable pages), or a fault sentinel when the prefix
  itself signals on that test.  A resumed run restores the image and so
  reads the prefix's flags, as the uninterrupted run would.
* :func:`program_writes` — the conservative write set of a program,
  which the vector backend's write-back ``run`` scatters.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.x86.liveness import uses_and_defs
from repro.x86.program import Program
from repro.x86.registers import GP64_NAMES, XMM_NAMES
from repro.x86.signals import Signal

_GP_INDEX = {name: i for i, name in enumerate(GP64_NAMES)}
_XMM_INDEX = {name: i for i, name in enumerate(XMM_NAMES)}


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


def program_writes(program: Program) -> tuple:
    """Conservative ``(gp, xmm_lo, xmm_hi, mem)`` write set of a program.

    A liveness-based over-approximation (XMM defs count both halves):
    ``VectorizedProgram.run`` scatters these rows back into the state,
    where any superset is safe, and its memory flag is the program's
    ``writes_mem``.
    """
    gp, xmm = set(), set()
    mem = False
    for instr in program.slots:
        if instr.is_unused:
            continue
        _uses, defs = uses_and_defs(instr)
        for name in defs:
            if name == "mem":
                mem = True
            elif name in _GP_INDEX:
                gp.add(_GP_INDEX[name])
            elif name in _XMM_INDEX:
                xmm.add(_XMM_INDEX[name])
    xmm_sorted = tuple(sorted(xmm))
    return tuple(sorted(gp)), xmm_sorted, xmm_sorted, mem


class Checkpoint:
    """One test's machine state at a prefix boundary.

    ``image`` is the :meth:`~repro.x86.state.MachineState.snapshot` of
    the test's pooled state after the prefix ran: every register, the
    status flags and the writable pages, so bringing the test back to
    the boundary is one ``TestCase.restored_state(image)``.  A checkpoint
    with ``signal`` set is a fault sentinel: the prefix itself signalled
    on this test, so any program sharing the prefix signals identically
    without executing.
    """

    __slots__ = ("image", "signal")

    def __init__(self, image: Optional[tuple], signal: Optional[Signal]):
        self.image = image
        self.signal = signal

    @classmethod
    def capture(cls, state) -> "Checkpoint":
        """Snapshot the whole of ``state``."""
        return cls(state.snapshot(), None)

    @classmethod
    def fault(cls, signal: Signal) -> "Checkpoint":
        """A sentinel recording that the prefix signals on this test."""
        return cls(None, signal)
