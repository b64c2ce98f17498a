"""The floating-point cost function (Equations 9-11 and Section 5.2).

``eq_fast`` measures, per test case, the ULP' distance between each
live-out location of the rewrite and of the target, discards anything at
or below the minimum acceptable rounding error ``eta``, adds a penalty for
divergent signal behaviour, and reduces over the test set with ``⊕``
(``max`` by default, per Section 5.2, so correctness cost cannot overflow
no matter how many test cases are used).

The configured backend computes the target's outputs.  Every rewrite
runs one way on every backend: as bound steps and lane batches
(:mod:`repro.x86.stepper`), from the cost function's prefix checkpoints
when the caller names the edit, and from slot 0 otherwise.

Two knobs the paper leaves implicit are exposed explicitly (and covered by
ablation benchmarks):

* ``compress`` — ULP excesses span ~19 orders of magnitude; with raw
  values a unit annealing constant reduces MCMC to hill climbing.  The
  default ``"log2"`` compresses each location's excess to its bit length,
  keeping acceptance probabilities meaningful across the whole range.
* ``reduction`` — ``"max"`` (the paper's choice) or ``"sum"`` (original
  STOKE) over test cases.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fp.ieee754 import DOUBLE, SINGLE
from repro.fp.ulp import ulp_distance_bits, ulp_distance_columns
from repro.x86.checkpoint import (Checkpoint, checkpoint_stride,
                                  flags_live_in, program_writes,
                                  union_writes)
# compile_program is not called here: every evaluation runs as bound
# steps.  The name stays importable because the end-to-end benchmark's
# traced runs wrap repro.core.cost.compile_program (and bound_steps) to
# attribute JIT compiles and step binding.
from repro.x86.jit import compile_program  # noqa: F401
from repro.x86.locations import Loc, MemLoc
from repro.x86.program import Program
from repro.x86.signals import Signal, SignalError
from repro.x86.stepper import bound_steps, lane_steps, run_lanes
from repro.x86.testcase import TestCase

from repro.core.perf import LatencyPerf
from repro.core.runner import Location, Runner

# Penalty used when the rewrite signals and the target does not; chosen to
# dominate any achievable per-location error cost.
_SIG_DEFAULT = 256.0


@dataclass(frozen=True)
class CostConfig:
    """Weights and shape of the cost function.

    Attributes:
        eta: Minimum unacceptable ULP rounding error (Equation 10); errors
            at or below ``eta`` are free.
        k: Weight of the performance term (Equation 2); ``k = 0`` is
            synthesis mode.
        wr / wm / ws: Register / memory / signal error weights (Eq 9).
        reduction: ``"max"`` (Section 5.2) or ``"sum"`` over test cases.
        compress: ``"log2"`` or ``"none"`` compression of ULP excesses.
        perf_scale: Exchange rate passed to :class:`LatencyPerf`.
    """

    eta: float = 0.0
    k: float = 1.0
    wr: float = 1.0
    wm: float = 1.0
    ws: float = _SIG_DEFAULT
    reduction: str = "max"
    compress: str = "log2"
    perf_scale: float = 20.0

    def __post_init__(self) -> None:
        if self.reduction not in ("max", "sum"):
            raise ValueError(f"bad reduction: {self.reduction!r}")
        if self.compress not in ("log2", "none"):
            raise ValueError(f"bad compress: {self.compress!r}")
        if self.eta < 0:
            raise ValueError("eta must be non-negative")


@dataclass(frozen=True)
class CostResult:
    """Breakdown of one cost evaluation."""

    total: float
    eq: float
    perf: float
    signalled: bool

    @property
    def correct(self) -> bool:
        """True when the rewrite met the eta bound on every test case."""
        return self.eq == 0.0


def location_ulp_distance(loc: Location, bits_a: int, bits_b: int) -> float:
    """ULP' distance for FP locations; Hamming distance for fixed-point.

    Using Hamming distance for integer locations matches the original
    STOKE cost, and keeps mixed fixed/floating kernels well-behaved.
    """
    if loc.ftype == "f64":
        return float(ulp_distance_bits(bits_a, bits_b, DOUBLE))
    if loc.ftype == "f32":
        return float(ulp_distance_bits(bits_a, bits_b, SINGLE))
    return float(bin(bits_a ^ bits_b).count("1"))


def ulp_widths(locs: Sequence[Location]) -> tuple:
    """Per location, the :func:`ulp_distance` width: the ``(mask, sign
    bit)`` of its f64/f32 format, or None for an integer location."""
    return tuple(
        (DOUBLE.mask, DOUBLE.sign_mask) if loc.ftype == "f64" else
        (SINGLE.mask, SINGLE.sign_mask) if loc.ftype == "f32" else None
        for loc in locs)


def ulp_distance(width: Optional[Tuple[int, int]], got: int,
                 want: int) -> float:
    """:func:`location_ulp_distance` for a location of ``width`` (an
    :func:`ulp_widths` entry), without the format lookups.

    The hot loops (``CostFunction._err_values``, the validator's
    ``err_block``) call it once per live-out.  After masking, a pattern
    with the sign bit set maps to ``sign - bits`` (minus its magnitude:
    the ordered key of ``ordered_from_bits``, so -0 and +0 share key 0),
    and the keys' distance is rounded once by ``float()``.  An integer
    location counts the set bits of the XOR.
    """
    if width is None:
        return float(bin(got ^ want).count("1"))
    mask, sign = width
    got &= mask
    want &= mask
    if got & sign:
        got = sign - got
    if want & sign:
        want = sign - want
    return float(got - want if got > want else want - got)


# Set bits of every byte value: the column Hamming distance looks up each
# byte of a lane (numpy's own popcount needs numpy 2).
_POPCOUNT8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def location_ulp_distance_columns(loc: Location, bits_a: np.ndarray,
                                  bits_b: np.ndarray) -> np.ndarray:
    """:func:`location_ulp_distance` lane by lane over uint64 bit
    columns, as float64."""
    if loc.ftype == "f64":
        return ulp_distance_columns(bits_a, bits_b, DOUBLE)
    if loc.ftype == "f32":
        return ulp_distance_columns(bits_a, bits_b, SINGLE)
    lanes = _POPCOUNT8[(bits_a ^ bits_b).view(np.uint8)].reshape(-1, 8)
    return lanes.sum(axis=1).astype(np.float64)


def _run_steps(steps: tuple, state) -> Optional[Signal]:
    """Run bound steps on one state; the signal raised, or None."""
    try:
        for fn, operands in steps:
            fn(state, operands)
    except SignalError as exc:
        return exc.signal
    return None


class _IncPlan:
    """Per-evaluation context of one cost evaluation.

    Built once per program from its edit span; holds the resume
    boundary (0 for a plan with no prefix to restore), the lower
    flags-safe boundaries a missing checkpoint can be captured from, the
    prefix's write set, the bound steps of the suffix ``[boundary, end)``
    and, once a chunk of two or more tests runs, its lane steps, and the
    capture segments ``[base, boundary)`` bound so far, by base.  The
    checkpoints themselves sit in the cost function's table, which the
    plan's rewrite shares its prefix with.
    """

    __slots__ = ("slots", "boundary", "bases", "writes_at_b", "promise",
                 "steps", "lanes", "segments")


class CostFunction:
    """``c(R; T) = eq(R; T) + k * perf(R; T)`` bound to a target."""

    def __init__(
        self,
        target: Program,
        tests: Sequence[TestCase],
        live_outs: Sequence[Union[str, Location]],
        config: CostConfig = CostConfig(),
        backend: str = "jit",
        cache_size: int = 8192,
    ):
        if not tests:
            raise ValueError("at least one test case is required")
        if cache_size < 1:
            raise ValueError("cache_size must be positive")
        self.config = config
        self.runner = Runner(live_outs, backend=backend)
        self.target = target
        # Test order is adaptive: when a proposal is early-rejected, the
        # test that rejected it moves to the front (STOKE's fast-out
        # heuristic), so the next doomed proposal usually dies on its
        # first execution.  tests / target_outputs / _expected are
        # permuted in lockstep; every cost value is order-independent.
        # A test object listed twice is replaced by an equal copy: each
        # slot runs on its test's pooled state, and two slots sharing
        # one state would alias it within a lane batch.
        self.tests = []
        seen = set()
        for test in tests:
            if id(test) in seen:
                test = TestCase(test.inputs, test.segments)
            seen.add(id(test))
            self.tests.append(test)
        self.perf = LatencyPerf(target.latency, scale=config.perf_scale)
        # The target must run cleanly on every test case.
        self.target_outputs = self.runner.outputs_for(target, self.tests)
        # Hot-path views of the expected outputs: one bits tuple per test
        # in runner.live_outs order, plus per-location weights, so the
        # inner loop never touches a dict.
        locs = self.runner.live_outs
        self._expected = [tuple(outs[loc] for loc in locs)
                          for outs in self.target_outputs]
        self._weights = tuple(
            config.wm if isinstance(loc, MemLoc) else config.wr
            for loc in locs)
        self._ulp_widths = ulp_widths(locs)
        self._log2_excess = config.compress == "log2"
        # Completed (not early-rejected) evaluations are memoized in a
        # bounded LRU: MCMC proposals frequently revisit recently seen
        # programs, and evicting one-at-a-time avoids the cold-cache
        # stall that wiping the whole memo mid-search used to cause.
        self._cache: "OrderedDict[Program, CostResult]" = OrderedDict()
        self._cache_max = cache_size
        self.cache_hits = 0
        self.cache_misses = 0
        self.incremental_hits = 0
        self.incremental_fallbacks = 0
        self.incremental_captures = 0
        # Prefix checkpoints of one anchor program, the chain's current
        # program (set_current): per test, in test order, a ``boundary
        # -> Checkpoint`` dict, and beside them the anchor's prefix
        # write set per boundary.  An entry at boundary b holds for
        # every program that shares ``anchor[:b]``.
        self._anchor: tuple = ()
        self._checkpoints: List[Dict[int, Checkpoint]] = [
            {} for _ in self.tests]
        self._prefix_writes: Dict[int, tuple] = {}
        # Adaptive-ordering stability window: identities of recently
        # promoted tests.  A promotion of a test already in this window
        # that sits within the window of the front is skipped — the
        # order is effectively stable and the list surgery is wasted.
        self._recent_promotes: deque = deque(maxlen=self._PROMOTE_WINDOW)
        self.promote_moves = 0
        self.promote_skips = 0

    # -- equivalence -----------------------------------------------------

    def _err_values(self, values: Tuple[int, ...],
                    expected: Tuple[int, ...]) -> float:
        """Equation 9 over aligned live-out bits tuples (hot path).

        Each location adds its weight times its excess ``max(0, ulps -
        eta)``, log2-compressed under ``compress="log2"``, where ``ulps``
        is its :func:`ulp_distance`.
        """
        eta = self.config.eta
        log2_excess = self._log2_excess
        total = 0.0
        for width, weight, got, want in zip(self._ulp_widths, self._weights,
                                            values, expected):
            excess = ulp_distance(width, got, want) - eta
            if excess <= 0.0:
                excess = 0.0
            elif log2_excess:
                excess = math.log2(1.0 + excess)
            total += weight * excess
        return total

    # Chunk ladder: the first chunk is a single test case (with adaptive
    # ordering it alone kills most doomed proposals), then chunk sizes
    # grow geometrically so surviving proposals run most of the test set
    # as one lane batch.
    _CHUNK_GROWTH = 8
    _FIRST_CHUNK = 1
    _PROMOTE_WINDOW = 4

    def _promote(self, index: int) -> None:
        """Move the test at ``index`` to the front of the test order.

        Promotions of a recently promoted test that already sits within
        the stability window are skipped: the order the ladder sees is
        effectively unchanged, and the triple list surgery on the hot
        path is pure waste (``promote_skips`` counts them).
        """
        if index == 0:
            self.promote_skips += 1
            return
        recent = self._recent_promotes
        ident = id(self.tests[index])
        if index < self._PROMOTE_WINDOW and ident in recent:
            self.promote_skips += 1
            return
        self.promote_moves += 1
        recent.append(ident)
        for seq in (self.tests, self.target_outputs, self._expected,
                    self._checkpoints):
            seq.insert(0, seq.pop(index))

    def eq_fast(self, rewrite: Program) -> Tuple[float, bool]:
        """Reduce per-test errors with ⊕; returns (eq, any_signal)."""
        eq, signalled, _ = self._evaluate(
            self._incremental_plan(rewrite, 0), None, 0.0)
        return eq, signalled

    # -- evaluation plans -------------------------------------------------

    def _incremental_plan(self, rewrite: Program,
                          edit_index: int) -> _IncPlan:
        """Resolve an edit span into an evaluation plan.

        The plan resumes from the largest flags-safe checkpoint boundary
        at or below the edit.  When there is none (the program is too
        short for checkpoints, the edit is at 0 or in the first stride,
        or the flags-liveness rule pushes the boundary to 0), the plan
        has boundary 0 and no capture: it runs the whole program from
        the pooled state and leaves the checkpoint table alone.  An
        evaluation with no edit index is such a plan (edit 0).

        The edit index is only a hint: a rewrite whose prefix up to the
        boundary is not the anchor's re-anchors the table on the rewrite
        first, so a dishonest edit index costs captures, never a wrong
        result.

        The plan is the same on every backend, and nothing is compiled
        here: a proposal is a never-before-seen program evaluated once,
        so a JIT compile (~1ms) could never amortize, while a bound step
        costs well under 1us.  Suffixes, capture segments and boundary-0
        runs all execute as bound steps, whose semantics are bit-identical
        to every backend's (tests/x86/test_differential.py is the
        contract; tests/x86/test_stepper.py pins bound steps to it).
        Every run starts on a freshly reset pooled state, whose status
        flags the pool restores to the test's all-clear values; a resumed
        run never reads flags before writing them (the boundary is
        flags-safe).  The liveness-based write sets are supersets of what
        the steps write, which is safe for snapshot and apply.
        """
        slots = rewrite.slots
        n = len(slots)
        stride = checkpoint_stride(n)
        boundary = 0
        if stride > 0 and edit_index > 0:
            boundary = (min(edit_index, n - 1) // stride) * stride
        if boundary > 0:
            flags = flags_live_in(rewrite)
            while boundary > 0 and flags[boundary]:
                boundary -= stride
        plan = _IncPlan()
        plan.slots = slots
        plan.boundary = boundary
        if boundary > 0:
            if slots[:boundary] != self._anchor[:boundary]:
                self.set_current(rewrite)
            # Warm capture bases: lower flags-safe boundaries a missing
            # checkpoint can be built from instead of replaying the
            # whole prefix (descending, nearest first).
            plan.bases = tuple(b for b in range(boundary - stride, 0, -stride)
                               if not flags[b])
            # Proposals from one anchor share their prefixes, so only
            # the suffix's write set is computed per proposal.
            writes = self._prefix_writes.get(boundary)
            if writes is None:
                writes = self._prefix_writes[boundary] = program_writes(
                    rewrite, 0, boundary)
            plan.writes_at_b = writes
            plan.promise = union_writes(writes,
                                        program_writes(rewrite, boundary))
        else:
            plan.bases = ()
            plan.writes_at_b = None  # no prefix, nothing to capture
            plan.promise = program_writes(rewrite)
        plan.steps = bound_steps(slots[boundary:])
        plan.lanes = None
        plan.segments = {}
        return plan

    def _capture(self, test: TestCase, table: Dict[int, Checkpoint],
                 plan: _IncPlan):
        """Capture ``test``'s missing checkpoint at the plan boundary
        into its ``table``, from the nearest warm base below it.

        Returns ``(checkpoint, live_state)``: ``live_state`` is non-None
        when the prefix ran cleanly, and is the test's pooled state
        still holding the post-prefix values — the caller can run the
        suffix on it directly without a restore/apply round trip.
        """
        boundary = plan.boundary
        base, base_cp = 0, None
        for b in plan.bases:
            if b in table:
                base, base_cp = b, table[b]
                break
        if base_cp is not None and base_cp.signal is not None:
            # The prefix already faults below the warm base; propagate
            # the sentinel without executing anything.
            cp = table[boundary] = Checkpoint.fault(base_cp.signal)
            return cp, None
        state = test.pooled_state(plan.promise)
        if base_cp is not None:
            base_cp.apply(state)
        segment = plan.segments.get(base)
        if segment is None:
            segment = plan.segments[base] = bound_steps(
                plan.slots[base:boundary])
        signal = _run_steps(segment, state)
        self.incremental_captures += 1
        if signal is not None:
            cp = table[boundary] = Checkpoint.fault(signal)
            return cp, None
        cp = table[boundary] = Checkpoint.capture(state, plan.writes_at_b)
        return cp, state

    def _evaluate(self, plan: _IncPlan, early_reject_above: Optional[float],
                  perf_term: float) -> Tuple[float, bool, bool]:
        """Run ``plan`` on the test set through the chunk ladder and
        reduce the per-test errors (Equation 9) with ⊕.

        Per test: fault sentinels short-circuit to the prefix's signal,
        warm checkpoints are applied onto the pooled state and only the
        suffix executes, cold checkpoints are captured on demand (the
        capture run doubles as the prefix execution).  A boundary-0
        plan has no prefix: its "suffix" is the whole program, run on
        the pooled state.

        A one-test chunk runs the suffix as bound steps.  A chunk of two
        or more tests brings every test to the boundary first, then runs
        the suffix once over all of their states as a lane batch
        (:func:`~repro.x86.stepper.run_lanes`), which leaves each state
        as its bound steps would; a one-lane batch is slower than the
        bound steps, so the chunk size alone picks the path.

        Returns ``(eq, any_signal, completed)``.  When
        ``early_reject_above`` is given and the running lower bound on
        the total cost passes it after a chunk, evaluation stops
        (``completed`` False) and the worst test seen so far is promoted
        to the front of the test order.
        """
        tests = self.tests
        tables = self._checkpoints
        values_of = self.runner.values_of
        steps = plan.steps
        promise = plan.promise
        boundary = plan.boundary

        def at_boundary(k):
            """``(state, None)`` of the ``k``-th test at the plan
            boundary, or ``(None, signal)`` when the prefix signals on
            that test."""
            test = tests[k]
            if not boundary:
                return test.pooled_state(promise), None
            cp = tables[k].get(boundary)
            if cp is None:
                cp, state = self._capture(test, tables[k], plan)
                if state is not None:
                    return state, None
            if cp.signal is not None:
                return None, cp.signal
            state = test.pooled_state(promise)
            cp.apply(state)
            return state, None

        def run_chunk(index: int, end: int):
            """One ``(values, signal)`` pair per test of ``[index, end)``."""
            if end - index == 1:
                state, signal = at_boundary(index)
                if signal is None:
                    signal = _run_steps(steps, state)
                if signal is not None:
                    return ((None, signal),)
                return ((values_of(state), None),)
            out = []
            live = []
            states = []
            for k in range(index, end):
                state, signal = at_boundary(k)
                if signal is None:
                    live.append(len(out))
                    states.append(state)
                out.append((None, signal))
            if states:
                lanes = plan.lanes
                if lanes is None:
                    lanes = plan.lanes = lane_steps(plan.slots[boundary:])
                for k, state, signal in zip(live, states,
                                            run_lanes(lanes, states)):
                    out[k] = ((None, signal) if signal is not None
                              else (values_of(state), None))
            return out

        cfg = self.config
        is_max = cfg.reduction == "max"
        expected = self._expected
        count = len(tests)
        eq = 0.0
        signalled = False
        worst_index = 0
        worst_err = -1.0
        index = 0
        chunk = self._FIRST_CHUNK
        while index < count:
            end = min(count, index + chunk)
            for offset, (values, signal) in enumerate(run_chunk(index, end)):
                if signal is not None:
                    err = cfg.ws
                    signalled = True
                else:
                    err = self._err_values(values, expected[index + offset])
                if err > worst_err:
                    worst_err, worst_index = err, index + offset
                if is_max:
                    if err > eq:
                        eq = err
                else:
                    eq += err
            index = end
            if (early_reject_above is not None and index < count
                    and eq + perf_term > early_reject_above):
                self._promote(worst_index)
                return eq, signalled, False
            chunk *= self._CHUNK_GROWTH
        return eq, signalled, True

    def set_current(self, program: Program) -> None:
        """Anchor the checkpoint table on ``program``, the chain's
        current program (the search calls this at chain start, on
        resume and on every accept).

        Entries at boundaries up to the first slot where ``program``
        differs from the old anchor hold for ``program`` too and stay;
        the rest are dropped, with their prefix write sets.  Every entry
        has its boundary's write set, so the write-set keys name every
        boundary in use.
        """
        slots = program.slots
        anchor = self._anchor
        self._anchor = slots
        stale = [b for b in self._prefix_writes if slots[:b] != anchor[:b]]
        if stale:
            for b in stale:
                del self._prefix_writes[b]
            for table in self._checkpoints:
                for b in stale:
                    table.pop(b, None)

    def incremental_stats(self) -> Dict[str, int]:
        """Counters of edit-aware evaluations (``cost`` with an edit
        index): those resumed from a checkpoint (hits), those run from
        boundary 0 (fallbacks), and checkpoint captures."""
        return {
            "hits": self.incremental_hits,
            "fallbacks": self.incremental_fallbacks,
            "captures": self.incremental_captures,
        }

    # -- total cost ------------------------------------------------------

    def cost(self, rewrite: Program,
             early_reject_above: Optional[float] = None,
             edit_index: Optional[int] = None) -> CostResult:
        """Evaluate ``c(R; T)``.

        ``early_reject_above``: if the running lower bound on the total
        cost exceeds this threshold, evaluation stops early and returns an
        upper-bound-ish result; the search only uses this for proposals
        it would reject with near certainty anyway.

        ``edit_index``: the proposal's edit span (lowest changed slot
        index) relative to the chain's current program.  When given, the
        evaluator resumes from a checkpointed prefix state and
        re-executes only ``[boundary, end)`` per test; without it, every
        test runs the whole program (a boundary-0 plan, see
        :meth:`_incremental_plan`).  Either way the program runs as
        bound steps and lane batches on every backend, compiling
        nothing, and the result is the same.
        """
        cached = self._cache.get(rewrite)
        if cached is not None:
            self._cache.move_to_end(rewrite)
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        cfg = self.config
        perf = self.perf(rewrite) if cfg.k != 0.0 else 0.0
        plan = self._incremental_plan(rewrite, edit_index or 0)
        if edit_index is not None:
            if plan.boundary:
                self.incremental_hits += 1
            else:
                self.incremental_fallbacks += 1
        eq, signalled, completed = self._evaluate(
            plan, early_reject_above, cfg.k * perf)
        total = eq + cfg.k * perf
        result = CostResult(total=total, eq=eq, perf=perf, signalled=signalled)
        if completed:
            while len(self._cache) >= self._cache_max:
                self._cache.popitem(last=False)
            self._cache[rewrite] = result
        return result

    def __call__(self, rewrite: Program) -> CostResult:
        return self.cost(rewrite)
