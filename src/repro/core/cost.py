"""The floating-point cost function (Equations 9-11 and Section 5.2).

``eq_fast`` measures, per test case, the ULP' distance between each
live-out location of the rewrite and of the target, discards anything at
or below the minimum acceptable rounding error ``eta``, adds a penalty for
divergent signal behaviour, and reduces over the test set with ``⊕``
(``max`` by default, per Section 5.2, so correctness cost cannot overflow
no matter how many test cases are used).

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
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fp.ieee754 import DOUBLE, SINGLE
from repro.fp.ulp import ulp_distance_bits, ulp_distance_columns
from repro.x86.checkpoint import (Checkpoint, PrefixKey, checkpoint_stride,
                                  flags_live_in, program_writes,
                                  union_writes)
# compile_program is not called here: edit-aware evaluation runs
# proposals as bound steps.  The name stays importable because the
# end-to-end benchmark's traced runs wrap repro.core.cost.compile_program
# (and bound_steps) to attribute JIT compiles and step binding.
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
    """Per-evaluation context of one incremental cost evaluation.

    Built once per proposal from its edit span; holds the resume
    boundary, the content-addressed prefix key (None for a boundary-0
    plan, which has no prefix to restore), the fallback capture bases
    and, once a capture needs them, their prefix keys, the bound steps
    of the suffix ``[boundary, end)`` and, once a chunk of two or more
    tests runs, its lane steps, and the capture segments ``[base,
    boundary)`` bound so far, by base.
    """

    __slots__ = ("slots", "boundary", "prefix_key", "bases", "base_keys",
                 "writes_at_b", "promise", "steps", "lanes", "segments")


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
        self.tests = list(tests)
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
        # Per-location (mask, sign bit) of the f64/f32 ordered-key
        # distance, or None for the Hamming distance (_err_values).
        self._ulp_widths = tuple(
            (DOUBLE.mask, DOUBLE.sign_mask) if loc.ftype == "f64" else
            (SINGLE.mask, SINGLE.sign_mask) if loc.ftype == "f32" else None
            for loc in locs)
        self._log2_excess = config.compress == "log2"
        # Full (non-early-terminated) evaluations are memoized in a
        # bounded LRU: MCMC proposals frequently revisit recently seen
        # programs, and evicting one-at-a-time avoids the cold-cache
        # stall that wiping the whole memo mid-search used to cause.
        self._cache: "OrderedDict[Program, CostResult]" = OrderedDict()
        self._cache_max = cache_size
        self.cache_hits = 0
        self.cache_misses = 0
        # Incremental (checkpointed-prefix) evaluation bookkeeping.  A
        # duplicated test object would alias one pooled state between
        # its two slots on the incremental path, so dup test sets always
        # take the full batch path.
        self._has_dup_tests = len({id(t) for t in self.tests}) != \
            len(self.tests)
        self.incremental_hits = 0
        self.incremental_fallbacks = 0
        self.incremental_captures = 0
        self._prefix_writes: Dict[PrefixKey, tuple] = {}
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
        eta)``, log2-compressed under ``compress="log2"``.  ``ulps`` is
        :func:`location_ulp_distance` inlined: a pattern with the sign
        bit set maps to minus its magnitude (the ordered key of
        ``ordered_from_bits``, so -0 and +0 share key 0), the keys'
        distance is rounded once by ``float()``, and an integer
        location counts the set bits of the XOR.
        """
        eta = self.config.eta
        log2_excess = self._log2_excess
        total = 0.0
        for width, weight, got, want in zip(self._ulp_widths, self._weights,
                                            values, expected):
            if width is None:
                ulps = float(bin(got ^ want).count("1"))
            else:
                mask, sign = width
                got &= mask
                want &= mask
                if got & sign:
                    got = sign - got
                if want & sign:
                    want = sign - want
                ulps = float(got - want if got > want else want - got)
            excess = ulps - eta
            if excess <= 0.0:
                excess = 0.0
            elif log2_excess:
                excess = math.log2(1.0 + excess)
            total += weight * excess
        return total

    # Batch chunk ladder: the first chunk is a single test case (with
    # adaptive ordering it alone kills most doomed proposals), then chunk
    # sizes grow geometrically so surviving proposals approach one
    # compiled-function call per test set.
    _CHUNK_GROWTH = 8
    _FIRST_CHUNK = 1
    _PROMOTE_WINDOW = 4

    def _eq_loop(self, run_chunk, early_reject_above: Optional[float],
                 perf_term: float) -> Tuple[float, bool, bool]:
        """The shared chunk-ladder reduction over the test set.

        ``run_chunk(index, end)`` executes tests ``[index, end)`` and
        returns one ``(values, signal)`` pair per test.  Both the full
        and the incremental evaluation paths run through this one loop,
        so their chunk schedule, ⊕-reduction, early-reject bound, and
        promotion behaviour are identical by construction — only the way
        a chunk is executed differs.

        Returns ``(eq, any_signal, completed)``.  When
        ``early_reject_above`` is given and the running lower bound on
        the total cost passes it, evaluation stops (``completed`` False)
        and the worst test seen so far is promoted to the front of the
        test order.
        """
        cfg = self.config
        is_max = cfg.reduction == "max"
        expected = self._expected
        count = len(self.tests)
        eq = 0.0
        signalled = False
        worst_index = 0
        worst_err = -1.0
        index = 0
        chunk = self._FIRST_CHUNK
        while index < count:
            end = min(count, index + chunk)
            results = run_chunk(index, end)
            for offset, (values, signal) in enumerate(results):
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

    def _eq(self, prepared, early_reject_above: Optional[float] = None,
            perf_term: float = 0.0) -> Tuple[float, bool, bool]:
        """Evaluate the ⊕-reduced test error with batched dispatch."""
        tests = self.tests
        runner = self.runner

        def run_chunk(index: int, end: int):
            if end - index == 1:
                # A one-test chunk goes through the scalar entry point:
                # proposals that die on the (adaptively fronted) first
                # test never pay for compiling the batched entry point.
                return (runner.run_values(prepared, tests[index]),)
            return runner.run_batch(prepared, tests[index:end])

        return self._eq_loop(run_chunk, early_reject_above, perf_term)

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
        for seq in (self.tests, self.target_outputs, self._expected):
            seq.insert(0, seq.pop(index))

    def eq_fast(self, rewrite: Program) -> Tuple[float, bool]:
        """Reduce per-test errors with ⊕; returns (eq, any_signal)."""
        prepared = self.runner.prepare(rewrite)
        eq, signalled, _ = self._eq(prepared)
        return eq, signalled

    # -- incremental evaluation ------------------------------------------

    def _incremental_plan(self, rewrite: Program,
                          edit_index: int) -> Optional[_IncPlan]:
        """Resolve an edit span into an incremental evaluation plan.

        The plan resumes from the largest flags-safe checkpoint boundary
        at or below the edit.  When there is none (the program is too
        short for checkpoints, the edit is in the first stride, or the
        flags-liveness rule pushes the boundary to 0), the plan has
        boundary 0, no prefix key and no capture.  Only a test set with
        duplicated test objects gets None (full evaluation).

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
        if self._has_dup_tests:
            return None
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
            plan.prefix_key = PrefixKey(slots[:boundary])
            # Warm capture bases: lower flags-safe boundaries a missing
            # checkpoint can be built from instead of replaying the
            # whole prefix (descending, nearest first).
            plan.bases = tuple(b for b in range(boundary - stride, 0, -stride)
                               if not flags[b])
            plan.writes_at_b = self._prefix_writes_of(rewrite,
                                                      plan.prefix_key)
            plan.promise = union_writes(
                plan.writes_at_b, program_writes(rewrite, boundary))
        else:
            plan.prefix_key = None
            plan.bases = ()
            plan.writes_at_b = None  # no prefix, nothing to capture
            plan.promise = program_writes(rewrite)
        plan.base_keys = None
        plan.steps = bound_steps(slots[boundary:])
        plan.lanes = None
        plan.segments = {}
        return plan

    # Prefix write sets memoized across proposals: proposals from one
    # current program share their prefixes, so only the suffix's write
    # set is computed per proposal.  Dropped wholesale when full.
    _PREFIX_WRITES_CAP = 4096

    def _prefix_writes_of(self, rewrite: Program, key: PrefixKey) -> tuple:
        """``program_writes`` of the ``key`` prefix of ``rewrite``."""
        writes = self._prefix_writes.get(key)
        if writes is None:
            if len(self._prefix_writes) >= self._PREFIX_WRITES_CAP:
                self._prefix_writes.clear()
            writes = self._prefix_writes[key] = program_writes(
                rewrite, 0, len(key))
        return writes

    def _ensure_checkpoint(self, test: TestCase, plan: _IncPlan):
        """The test's checkpoint at the plan boundary, capturing it on
        demand.

        Returns ``(checkpoint, live_state)``: ``live_state`` is non-None
        only when the checkpoint was captured just now, in which case it
        is the test's pooled state still holding the post-prefix values
        — the caller can run the suffix on it directly without a
        restore/apply round trip.
        """
        cp = test.get_checkpoint(plan.prefix_key)
        if cp is not None:
            return cp, None
        slots = plan.slots
        base_keys = plan.base_keys
        if base_keys is None:
            base_keys = plan.base_keys = tuple(
                (b, PrefixKey(slots[:b])) for b in plan.bases)
        base = 0
        base_cp = None
        for b, key in base_keys:
            candidate = test._checkpoints.get(key)
            if candidate is not None:
                base, base_cp = b, candidate
                break
        if base_cp is not None and base_cp.signal is not None:
            # The prefix already faults below the warm base; propagate
            # the sentinel without executing anything.
            cp = Checkpoint.fault(base_cp.signal)
            test.put_checkpoint(plan.prefix_key, cp)
            return cp, None
        state = test.pooled_state(plan.promise)
        if base_cp is not None:
            base_cp.apply(state)
        segment = plan.segments.get(base)
        if segment is None:
            segment = plan.segments[base] = bound_steps(
                slots[base:plan.boundary])
        signal = _run_steps(segment, state)
        self.incremental_captures += 1
        if signal is not None:
            cp = Checkpoint.fault(signal)
            test.put_checkpoint(plan.prefix_key, cp)
            return cp, None
        cp = Checkpoint.capture(state, plan.writes_at_b)
        test.put_checkpoint(plan.prefix_key, cp)
        return cp, state

    def _eq_incremental(self, plan: _IncPlan,
                        early_reject_above: Optional[float] = None,
                        perf_term: float = 0.0) -> Tuple[float, bool, bool]:
        """The chunk ladder with checkpointed-prefix chunk execution.

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
        """
        tests = self.tests
        values_of = self.runner.values_of
        steps = plan.steps
        promise = plan.promise
        resumes = plan.prefix_key is not None

        def at_boundary(test):
            """``(state, None)`` at the plan boundary, or ``(None,
            signal)`` when the prefix signals on ``test``."""
            if not resumes:
                return test.pooled_state(promise), None
            cp, state = self._ensure_checkpoint(test, plan)
            if cp.signal is not None:
                return None, cp.signal
            if state is None:
                state = test.pooled_state(promise)
                cp.apply(state)
            return state, None

        def run_chunk(index: int, end: int):
            if end - index == 1:
                state, signal = at_boundary(tests[index])
                if signal is None:
                    signal = _run_steps(steps, state)
                if signal is not None:
                    return ((None, signal),)
                return ((values_of(state), None),)
            out = []
            live = []
            states = []
            for test in tests[index:end]:
                state, signal = at_boundary(test)
                if signal is None:
                    live.append(len(out))
                    states.append(state)
                out.append((None, signal))
            if states:
                lanes = plan.lanes
                if lanes is None:
                    lanes = plan.lanes = lane_steps(
                        plan.slots[plan.boundary:])
                for k, state, signal in zip(live, states,
                                            run_lanes(lanes, states)):
                    out[k] = ((None, signal) if signal is not None
                              else (values_of(state), None))
            return out

        return self._eq_loop(run_chunk, early_reject_above, perf_term)

    def set_current(self, program: Program) -> None:
        """Tell the cost function the search accepted ``program``.

        Checkpoints are content-addressed, so stale entries can never
        corrupt a result; pruning the ones whose prefix the new current
        program does not share just keeps the store from carrying
        unreachable state.
        """
        slots = program.slots
        for test in self.tests:
            test.prune_checkpoints(slots)

    def incremental_stats(self) -> Dict[str, int]:
        """Counters of the incremental path: evaluations resumed from a
        checkpoint (hits), evaluations from boundary 0 or by full
        evaluation (fallbacks), and checkpoint captures."""
        return {
            "hits": self.incremental_hits,
            "fallbacks": self.incremental_fallbacks,
            "captures": self.incremental_captures,
        }

    # -- full cost -------------------------------------------------------

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
        re-executes only ``[boundary, end)`` per test, as bound steps
        on every backend, compiling nothing; results are bit-identical
        to full evaluation, so this is purely a fast path (with the
        fallbacks listed in :meth:`_incremental_plan`).
        """
        cached = self._cache.get(rewrite)
        if cached is not None:
            self._cache.move_to_end(rewrite)
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        cfg = self.config
        perf = self.perf(rewrite) if cfg.k != 0.0 else 0.0
        plan = None
        if edit_index is not None:
            plan = self._incremental_plan(rewrite, edit_index)
            if plan is None or plan.prefix_key is None:
                self.incremental_fallbacks += 1
            else:
                self.incremental_hits += 1
        if plan is not None:
            eq, signalled, completed = self._eq_incremental(
                plan, early_reject_above=early_reject_above,
                perf_term=cfg.k * perf)
        else:
            prepared = self.runner.prepare(rewrite)
            eq, signalled, completed = self._eq(
                prepared, early_reject_above=early_reject_above,
                perf_term=cfg.k * perf)
        total = eq + cfg.k * perf
        result = CostResult(total=total, eq=eq, perf=perf, signalled=signalled)
        if completed:
            while len(self._cache) >= self._cache_max:
                self._cache.popitem(last=False)
            self._cache[rewrite] = result
        return result

    def __call__(self, rewrite: Program) -> CostResult:
        return self.cost(rewrite)
