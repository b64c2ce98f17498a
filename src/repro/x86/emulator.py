"""Decode-and-dispatch emulator backend.

This is the reference evaluator, architecturally equivalent to the x86-64
emulator the original STOKE used: every instruction is dispatched through
the opcode table and its operands are re-resolved on every execution.  It
is deliberately the slow-but-simple backend; the JIT backend
(:mod:`repro.x86.jit`) reproduces the paper's two-orders-of-magnitude
throughput improvement over it (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.x86.program import Program
from repro.x86.signals import Signal, SignalError
from repro.x86.state import MachineState


@dataclass(frozen=True)
class Outcome:
    """The result of executing a program on a machine state."""

    signal: Optional[Signal] = None

    @property
    def ok(self) -> bool:
        return self.signal is None


class Emulator:
    """Interpretive execution of loop-free programs."""

    def run(self, program: Program, state: MachineState) -> Outcome:
        """Execute ``program`` on ``state`` in place."""
        try:
            for instr in program.slots:
                instr.spec.exec_fn(state, instr.operands)
        except SignalError as exc:
            return Outcome(signal=exc.signal)
        return Outcome()

    def run_batch(self, program: Program,
                  states: "Sequence[MachineState]") -> list:
        """Execute on every state; returns per-state signals (None = ok).

        The emulator deliberately keeps per-test decode-and-dispatch —
        that is the backend's defining overhead, and batching it away
        would flatter the emulator side of the Section 5.1 throughput
        gap.  Only the loop over states is hoisted here so both backends
        expose the same batch interface.
        """
        slots = program.slots
        signals = [None] * len(states)
        for i, state in enumerate(states):
            try:
                for instr in slots:
                    instr.spec.exec_fn(state, instr.operands)
            except SignalError as exc:
                signals[i] = exc.signal
        return signals
