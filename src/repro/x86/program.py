"""Loop-free programs over the x86-64 subset.

A :class:`Program` is a fixed-length tuple of slots; the search mutates
slots in place (functionally — programs are immutable values) and the
UNUSED token keeps the slot count constant while varying the line count,
exactly as in STOKE.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.x86.instruction import UNUSED, Instruction


class Program:
    """An immutable sequence of instruction slots."""

    __slots__ = ("slots", "_hash", "_latency")

    def __init__(self, slots: Iterable[Instruction]):
        self.slots: Tuple[Instruction, ...] = tuple(slots)
        self._hash = None
        self._latency = None

    @classmethod
    def from_instructions(cls, instructions: Sequence[Instruction],
                          total_slots: int = 0) -> "Program":
        """Build a program, padding with UNUSED up to ``total_slots``."""
        slots: List[Instruction] = list(instructions)
        while len(slots) < total_slots:
            slots.append(UNUSED)
        return cls(slots)

    @property
    def code(self) -> Tuple[Instruction, ...]:
        """The non-UNUSED instructions, in order."""
        return tuple(i for i in self.slots if not i.is_unused)

    @property
    def loc(self) -> int:
        """Lines of code: the number of non-UNUSED slots."""
        return sum(1 for i in self.slots if not i.is_unused)

    @property
    def latency(self) -> int:
        """Static latency estimate: sum of per-instruction latencies.

        Summed once per program; the edits below carry it over, since
        the cost function reads it for every proposal."""
        if self._latency is None:
            self._latency = sum(i.latency for i in self.slots)
        return self._latency

    def with_slot(self, index: int, instruction: Instruction) -> "Program":
        """A copy with one slot replaced."""
        slots = list(self.slots)
        removed = slots[index]
        slots[index] = instruction
        program = Program(slots)
        program._latency = (self.latency - removed.latency
                            + instruction.latency)
        return program

    def with_swap(self, i: int, j: int) -> "Program":
        """A copy with two slots interchanged."""
        slots = list(self.slots)
        slots[i], slots[j] = slots[j], slots[i]
        program = Program(slots)
        program._latency = self._latency
        return program

    def compact(self) -> "Program":
        """A copy with UNUSED slots removed (for display/verification)."""
        return Program(self.code)

    def padded(self, total_slots: int) -> "Program":
        """A copy padded with trailing UNUSED slots."""
        if total_slots < len(self.slots):
            raise ValueError("cannot shrink a program by padding")
        return Program.from_instructions(self.slots, total_slots)

    def to_text(self, include_unused: bool = False) -> str:
        """Render as AT&T-style assembly, one instruction per line."""
        lines = [str(i) for i in self.slots
                 if include_unused or not i.is_unused]
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self):
        return iter(self.slots)

    def __getitem__(self, index: int) -> Instruction:
        return self.slots[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, Program) and self.slots == other.slots

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.slots)
        return self._hash

    def __repr__(self) -> str:
        return f"Program({self.loc} LOC / {len(self.slots)} slots)"
