"""The relational (product-program) abstract domain.

:class:`RelationalTransfer` runs target and rewrite in lockstep over one
paired abstract state per box:

* **Shared-prefix collapse** — the longest run of textually identical
  leading instructions is executed *once* on the single paired state
  (a :class:`~repro.verify.interval._StateSnapshot` forks the two
  suffixes), with the prefix's bit-op accounting replayed so stats stay
  bit-identical to running both programs in full.
* **Correlated live-outs** — both programs are also executed
  symbolically once at construction (extended fragment of
  :mod:`repro.verify.symbolic`) and the paired expression DAGs compiled
  into a :class:`~repro.verify.relational.diffbound.PairPlan`; per box
  the plan is re-evaluated and the live-out ULP distance is bounded
  through the *difference* window rather than by subtracting
  independent hulls.

Per live-out and per box the reported bound is the **minimum** of the
separate-domain bound and the relational window bound, so the relational
domain is never looser than the separate one on the same partition — the
degradation path for programs outside the paired fragment is exactly the
separate bound.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.verify.interval import (
    IntervalD,
    IntervalTransfer,
    TransferStats,
    _StateSnapshot,
)
from repro.verify.relational.diffbound import (
    PairBox,
    PairPlan,
    window_ulp_bound,
)
from repro.verify.symbolic import Node, SymbolicUnsupported, symbolic_execute
from repro.verify.uf import _read_location
from repro.x86.program import Program
from repro.x86.registers import XMM_INDEX


def shared_prefix_len(target: Program, rewrite: Program) -> int:
    """Length (in compiled steps) of the common leading instruction run.

    Compared textually over non-``nop`` slots, matching the one-step-
    per-instruction layout of :func:`repro.verify.compile.compile_transfer`.
    """
    t = [str(i) for i in target.slots if i.opcode != "nop"]
    r = [str(i) for i in rewrite.slots if i.opcode != "nop"]
    n = 0
    for a, b in zip(t, r):
        if a != b:
            break
        n += 1
    return n


def _extract_pairs(target, rewrite, locations, memory, concrete_gp
                   ) -> Tuple[Dict[str, Tuple[Node, Node]], Optional[str]]:
    """Paired live-out expression DAGs, or why they are unavailable."""
    try:
        t_state = symbolic_execute(target, memory.copy(), concrete_gp,
                                   extended=True)
        r_state = symbolic_execute(rewrite, memory.copy(), concrete_gp,
                                   extended=True)
    except SymbolicUnsupported as exc:
        return {}, str(exc)
    pairs: Dict[str, Tuple[Node, Node]] = {}
    error = None
    for loc in locations:
        try:
            pairs[str(loc)] = (_read_location(t_state, loc),
                               _read_location(r_state, loc))
        except SymbolicUnsupported as exc:
            error = str(exc)
    return pairs, error


def _input_hulls(inputs):
    """Map box inputs onto the symbolic executor's input-node names."""
    mem_inputs, reg_inputs = inputs
    f64: Dict[str, IntervalD] = {}
    f32: Dict[Tuple[str, int], IntervalD] = {}
    for loc, (kind, interval) in reg_inputs.items():
        idx = XMM_INDEX[loc.reg]
        if kind == "f64":
            f64[f"x{idx}" + ("l" if loc.lane == 0 else "h")] = interval
        else:
            half = "l" if loc.lane < 2 else "h"
            f32[(f"x{idx}{half}", 32 * (loc.lane % 2))] = interval
    for (segment, offset), (kind, interval) in mem_inputs.items():
        if kind == "f64":
            f64[f"{segment}+{offset}"] = interval
        else:
            f32[(f"{segment}+{offset}", 0)] = interval
    return f64, f32


class RelationalTransfer(IntervalTransfer):
    """Product-program transfer: separate bounds met with paired-DAG
    difference windows, plus shared-prefix collapse on the hot path."""

    domain = "relational"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shared_prefix = shared_prefix_len(self.target, self.rewrite)
        self.pairs, self.relational_error = _extract_pairs(
            self.target, self.rewrite, self.locations, self.memory,
            self.concrete_gp)
        self.pair_plan = PairPlan(list(self.pairs.values()))
        root_of = {name: k for k, name in enumerate(self.pairs)}
        # per live-out location: its plan root, or None when unpaired
        self._roots = [root_of.get(str(loc)) for loc in self.locations]

    # -- paired execution --------------------------------------------------

    def _run_pair(self, mem_inputs, reg_inputs, stats: TransferStats):
        """Run both programs over one box, executing the shared
        instruction prefix once on the paired state."""
        n = self.shared_prefix
        if n == 0:
            return super()._run_pair(mem_inputs, reg_inputs, stats)
        t_plan, r_plan = self._plans
        t_state = self._fresh_state(mem_inputs, reg_inputs, stats)
        c0 = stats.concrete_bit_ops
        w0 = stats.widened_bit_ops
        for fn in t_plan.steps[:n]:
            fn(t_state)
        # The collapsed prefix ran once on behalf of both programs;
        # replay its accounting so the stats deltas stay bit-identical
        # to the two-run semantics (identical instructions on identical
        # inputs produce identical deltas).
        stats.concrete_bit_ops += stats.concrete_bit_ops - c0
        stats.widened_bit_ops += stats.widened_bit_ops - w0
        snapshot = _StateSnapshot.capture(t_state)
        for fn in t_plan.steps[n:]:
            fn(t_state)
        r_state = snapshot.restore(self.memory, mem_inputs, stats)
        for fn in r_plan.steps[n:]:
            fn(r_state)
        return t_state, r_state

    # -- relational output bounding ---------------------------------------

    def _live_out_bound(self, j, t_out, r_out, hull, inputs, memo):
        """The hull bound met with the paired DAGs' difference window
        (``memo`` holds the box's :class:`PairBox`, built once)."""
        root = self._roots[j]
        if (root is None or inputs is None or hull <= 0.0
                or self.locations[j].ftype != "f64"
                or not isinstance(t_out, IntervalD)
                or not isinstance(r_out, IntervalD)):
            return hull
        if not memo:
            memo.append(PairBox(self.pair_plan, *_input_hulls(inputs)))
        window = window_ulp_bound("f64", t_out, r_out, memo[0].diff(root))
        return window if window < hull else hull


def transfer_class(domain: str):
    """The transfer class for a certificate/CLI ``domain`` kind."""
    if domain == "separate":
        return IntervalTransfer
    if domain == "relational":
        return RelationalTransfer
    raise ValueError(
        f"unknown verify domain {domain!r} (expected 'separate' or "
        f"'relational')")
