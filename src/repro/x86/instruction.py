"""Instructions and the UNUSED token.

A program in this system is a fixed-length sequence of slots, each holding
either a real instruction or the UNUSED token (Section 2.2): proposing
UNUSED deletes an instruction, replacing UNUSED inserts one.  UNUSED is
modelled as the zero-latency ``nop`` opcode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.x86.opcodes import OpcodeSpec, instruction_latency, spec_of
from repro.x86.operands import Operand


@dataclass(frozen=True, eq=True)
class Instruction:
    """An opcode plus its operands, in AT&T order (sources first)."""

    opcode: str
    operands: Tuple[Operand, ...] = ()

    def __post_init__(self) -> None:
        spec = spec_of(self.opcode)
        if not spec.accepts(self.operands):
            rendered = ", ".join(str(op) for op in self.operands)
            raise ValueError(
                f"invalid operands for {self.opcode}: {rendered or '(none)'}"
            )

    def __hash__(self) -> int:
        # Same value the dataclass-generated hash would produce, computed
        # once: instructions are immutable and sit in the slot tuples the
        # checkpoint store keys on, where they are re-hashed on every
        # prefix lookup of every proposal.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.opcode, self.operands))
            object.__setattr__(self, "_hash", value)
            return value

    @property
    def spec(self) -> OpcodeSpec:
        # Resolved once per instruction: the incremental evaluator walks
        # slot tuples on every proposal (flags liveness, write sets,
        # suffix interpretation) and the registry lookup was a measurable
        # share of each walk.
        try:
            return self._spec
        except AttributeError:
            spec = spec_of(self.opcode)
            object.__setattr__(self, "_spec", spec)
            return spec

    @property
    def is_unused(self) -> bool:
        return self.opcode == "nop"

    @property
    def latency(self) -> int:
        try:
            return self._latency
        except AttributeError:
            value = instruction_latency(self.opcode, self.operands)
            object.__setattr__(self, "_latency", value)
            return value

    def memoize(self, name: str, value):
        """Attach ``value`` as the memo attribute ``name`` and return it.

        Modules that derive per-instruction data on the evaluator's hot
        path keep it here rather than in module dicts keyed by
        instruction, whose lookups would hash the instruction each time:
        the bound step and lane step (``_step``, ``_lane``,
        :mod:`repro.x86.stepper`) and the def set (``_writes``,
        :mod:`repro.x86.checkpoint`).  The memo lives and dies with the
        instruction; equal instructions derive equal values.
        """
        object.__setattr__(self, name, value)
        return value

    def __getstate__(self):
        # Drop memoized attributes: the spec holds exec/emit closures,
        # which do not pickle (programs cross process boundaries in the
        # parallel multi-chain search).
        return (self.opcode, self.operands)

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "opcode", state[0])
        object.__setattr__(self, "operands", state[1])

    def __str__(self) -> str:
        if not self.operands:
            return self.opcode
        return f"{self.opcode} " + ", ".join(str(op) for op in self.operands)


UNUSED = Instruction("nop", ())
