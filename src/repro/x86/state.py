"""Machine state for the x86-64 subset.

Sixteen 64-bit GP registers, sixteen 128-bit XMM registers (held as a
low/high pair of 64-bit unsigned ints), the five status flags the subset's
``cmp``/``test``/``ucomis*`` instructions define, and a sandboxed
:class:`~repro.x86.memory.Memory`.
"""

from __future__ import annotations

from typing import Optional

from repro.x86.memory import Memory
from repro.x86.operands import Imm, Mem, Operand, Reg32, Reg64, Xmm
from repro.x86.scalar import MASK32, MASK64


class MachineState:
    """Full architectural state operated on by the evaluators."""

    __slots__ = ("gp", "xmm_lo", "xmm_hi", "flags", "mem")

    def __init__(self, mem: Optional[Memory] = None):
        self.gp = [0] * 16
        self.xmm_lo = [0] * 16
        self.xmm_hi = [0] * 16
        self.flags = {"zf": 0, "cf": 0, "sf": 0, "of": 0, "pf": 0}
        self.mem = mem if mem is not None else Memory()

    def copy(self) -> "MachineState":
        fresh = MachineState(self.mem.copy())
        fresh.gp = list(self.gp)
        fresh.xmm_lo = list(self.xmm_lo)
        fresh.xmm_hi = list(self.xmm_hi)
        fresh.flags = dict(self.flags)
        return fresh

    def snapshot(self) -> tuple:
        """Capture register/flag/writable-memory values for `restore`.

        Together with :meth:`restore` this lets one state serve many
        executions (the evaluator's state pool) without the allocation
        cost of :meth:`copy` per run.  A prefix checkpoint is one such
        snapshot of a test's pooled state at its boundary.
        """
        return (tuple(self.gp), tuple(self.xmm_lo), tuple(self.xmm_hi),
                dict(self.flags), self.mem.snapshot_writable())

    def restore(self, snapshot: tuple) -> None:
        """Reset this state in place to a previously taken `snapshot`."""
        gp, xmm_lo, xmm_hi, flags, mem_snapshot = snapshot
        self.gp[:] = gp
        self.xmm_lo[:] = xmm_lo
        self.xmm_hi[:] = xmm_hi
        self.flags.update(flags)
        self.mem.restore_writable(mem_snapshot)

    # ------------------------------------------------------------------
    # operand helpers used by the emulator backend

    def addr(self, op: Mem) -> int:
        """Effective address of a memory operand."""
        base = self.gp[op.base]
        index = self.gp[op.index] * op.scale if op.index is not None else 0
        return (base + index + op.disp) & MASK64

    def read64(self, op: Operand) -> int:
        """Read a 64-bit source value (xmm low quad for XMM operands)."""
        if isinstance(op, Xmm):
            return self.xmm_lo[op.index]
        if isinstance(op, Reg64):
            return self.gp[op.index]
        if isinstance(op, Imm):
            return op.value & MASK64
        if isinstance(op, Mem):
            return self.mem.load8(self.addr(op))
        raise TypeError(f"cannot read 64 bits from {op!r}")

    def read32(self, op: Operand) -> int:
        """Read a 32-bit source value (xmm low dword for XMM operands)."""
        if isinstance(op, Xmm):
            return self.xmm_lo[op.index] & MASK32
        if isinstance(op, (Reg32, Reg64)):
            return self.gp[op.index] & MASK32
        if isinstance(op, Imm):
            return op.value & MASK32
        if isinstance(op, Mem):
            return self.mem.load4(self.addr(op))
        raise TypeError(f"cannot read 32 bits from {op!r}")

    def read128(self, op: Operand) -> tuple:
        """Read a 128-bit source as a (lo, hi) pair."""
        if isinstance(op, Xmm):
            return self.xmm_lo[op.index], self.xmm_hi[op.index]
        if isinstance(op, Mem):
            return self.mem.load16(self.addr(op))
        raise TypeError(f"cannot read 128 bits from {op!r}")

    def write_gp64(self, op: Reg64, value: int) -> None:
        self.gp[op.index] = value & MASK64

    def write_gp32(self, op: Reg32, value: int) -> None:
        # 32-bit writes zero-extend into the full register (x86-64 rule).
        self.gp[op.index] = value & MASK32

    def write_xmm_lo(self, op: Xmm, value: int) -> None:
        """Write the low quad, preserving the high quad (SSE scalar rule)."""
        self.xmm_lo[op.index] = value & MASK64

    def write_xmm(self, op: Xmm, lo: int, hi: int) -> None:
        self.xmm_lo[op.index] = lo & MASK64
        self.xmm_hi[op.index] = hi & MASK64

    def set_flags(self, zf: int, cf: int, sf: int, of: int, pf: int) -> None:
        flags = self.flags
        flags["zf"], flags["cf"], flags["sf"], flags["of"], flags["pf"] = (
            zf, cf, sf, of, pf,
        )
