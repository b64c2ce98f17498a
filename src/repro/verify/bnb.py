"""Budgeted branch-and-bound ULP-bound verification.

The sound counterpart to MCMC validation (Section 4 of the paper
concedes this is out of reach for general rewrites and falls back to
testing; we recover it for the interval-analyzable fragment).  The
verifier maintains a worst-box-first frontier of bit-space boxes
(:class:`repro.verify.partition.BitBox`), repeatedly splitting the box
with the largest interval bound along its widest ULP-space dimension:

* **Bit-space splitting.**  Value-space widest-dimension splitting can
  never refine a denormal neighborhood (its value width rounds to ~0
  against any normal-range dimension — the E11 starvation).  In ordered
  bit-index space every representable value is one unit wide, so splits
  allocate effort by representable-value count.
* **Counterexample seeding.**  Inputs found by the MCMC validator
  (:func:`seeds_from_validation`) carry their observed true errors: the
  largest is a *lower* bound on the sup error, boxes whose bound is
  already below it are never worth refining (pruned), and boxes that
  contain a counterexample are refined first while the bound has slack.
* **One serial commit loop.**  The search runs in-process and commits
  one split at a time in strict heap order: pop the worst box, split it,
  and analyze both children in one
  :meth:`~repro.verify.interval.IntervalTransfer.analyze_split` call
  that shares the parent's abstract prefix.  Worker processes were
  measured and removed: on the five libimf kernels 8 workers ran slower
  than one, and 2 workers on a 2-vCPU host stayed within run-to-run
  noise of one.
* **Termination triad.**  A box budget, a wall-clock deadline, and a
  target gap (``bound <= lower + gap * max(lower, 1)``) — whichever
  fires first; an exhausted frontier (everything pruned or at point
  boxes) ends the search early.

The search's output is *not* trusted: :meth:`BnBVerifier.certificate`
packages the leaf partition for :mod:`repro.verify.checker`, which
re-verifies the tiling and re-derives every leaf bound independently.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.runner import Location
from repro.x86.memory import Memory
from repro.x86.program import Program
from repro.x86.testcase import decode_from

from repro.verify.interval import IntervalTransfer, TransferStats
from repro.verify.partition import (BitBox, Dim, covered_seed_count,
                                    indices_of_values)

_INF = math.inf


@dataclass(frozen=True)
class TransferSpec:
    """Recipe for an IntervalTransfer: the programs and their environment
    (certificates digest these fields)."""

    target: Program
    rewrite: Program
    live_outs: Tuple[str, ...]
    ranges: Tuple[Tuple[str, float, float], ...]
    memory: Optional[Memory]
    concrete_gp: Tuple[Tuple[int, int], ...]
    profile: bool = False
    domain: str = "separate"

    def build(self) -> IntervalTransfer:
        from repro.verify.relational.domain import transfer_class

        cls = transfer_class(self.domain)
        return cls(
            self.target, self.rewrite, list(self.live_outs),
            {loc: (lo, hi) for loc, lo, hi in self.ranges},
            memory=self.memory, concrete_gp=dict(self.concrete_gp),
            profile=self.profile)


@dataclass(frozen=True)
class BnBConfig:
    """Search policy: termination triad and counterexample seeds."""

    max_boxes: int = 256          # analyze-call budget
    deadline: Optional[float] = None   # wall-clock seconds
    target_gap: Optional[float] = None  # relative gap vs the lower bound
    # The search runs in-process: run() accepts only 1.  Certificates
    # record it as ``"jobs": 1``.
    jobs: int = 1
    # ((input values in range order), observed true error) pairs,
    # typically from seeds_from_validation().
    seeds: Tuple[Tuple[Tuple[float, ...], float], ...] = ()


@dataclass
class BnBResult:
    """Outcome of one branch-and-bound run."""

    bound_ulps: float
    lower_bound: float
    boxes_explored: int
    boxes_pruned: int
    leaves: List[BitBox]
    leaf_bounds: List[float]
    per_location: Dict[str, float]
    stats: TransferStats
    complete: bool
    termination: str  # 'exhausted' | 'budget' | 'deadline' | 'gap'
    wall_time: float
    rounds: int = 0
    max_frontier: int = 0
    seeds_covered: int = 0
    unsupported: int = 0
    # Certified per-live-out bound: for each location, the max over all
    # leaves of that location's contribution (a sound per-output bound
    # on its own, unlike per_location which is the worst *leaf's*
    # breakdown and only explains the headline sum).
    per_location_bounds: Dict[str, float] = field(default_factory=dict)
    domain: str = "separate"

    @property
    def gap(self) -> float:
        """Relative slack between the certified bound and the empirical
        lower bound (0 means the bound is tight against evidence)."""
        return (self.bound_ulps - self.lower_bound) / \
            max(self.lower_bound, 1.0)

    @property
    def boxes_per_second(self) -> float:
        """End-to-end verification throughput (explored / wall time)."""
        if self.wall_time <= 0:
            return 0.0
        return self.boxes_explored / self.wall_time


@dataclass
class _Entry:
    priority: int  # 2 = unsupported (forced split), 1 = holds a cex, 0 = rest
    bound: float
    seq: int
    box: BitBox
    per_loc: Optional[Dict[str, float]]

    def key(self):
        # Max-heap: forced splits first, then worst bound, then FIFO.
        return (-self.priority, -self.bound if self.bound == self.bound
                else -_INF, self.seq)


def _entry_to_dict(entry: _Entry) -> dict:
    from repro.core import serialize as S

    return {
        "priority": entry.priority,
        "bound": S.enc_float(entry.bound),
        "seq": entry.seq,
        "box": [list(b) for b in entry.box.bounds],
        "per_loc": None if entry.per_loc is None
        else {loc: S.enc_float(v) for loc, v in entry.per_loc.items()},
    }


def _entry_from_dict(data: dict) -> _Entry:
    from repro.core import serialize as S

    per_loc = data["per_loc"]
    return _Entry(
        priority=int(data["priority"]),
        bound=S.dec_float(data["bound"]),
        seq=int(data["seq"]),
        box=BitBox(tuple((int(lo), int(hi)) for lo, hi in data["box"])),
        per_loc=None if per_loc is None
        else {loc: S.dec_float(v) for loc, v in per_loc.items()},
    )


@dataclass
class BnBCheckpoint:
    """Exact mid-refinement state of one branch-and-bound run.

    Captured at round boundaries (the frontier/leaf sets are consistent
    there) and sufficient for :meth:`BnBVerifier.run` to continue the
    bit-identical search: entry ``seq`` numbers are preserved, so the
    strict ``(priority, bound, seq)`` heap order — and therefore the
    refinement order and final leaf partition — matches the
    uninterrupted run (wall-clock fields excepted).  Leaf boxes reuse
    the certificate's inclusive bit-index range encoding.
    """

    seq: int
    explored: int
    pruned: int
    rounds: int
    max_frontier: int
    complete: bool
    stats_boxes: int
    stats_concrete: int
    stats_widened: int
    frontier: List[_Entry]
    leaves: List[_Entry]
    unsupported: int = 0
    domain: str = "separate"

    def to_dict(self) -> dict:
        from repro.core import serialize as S

        return {
            "version": S.SCHEMA_VERSION,
            "kind": "bnb_checkpoint",
            "domain": self.domain,
            "seq": self.seq,
            "explored": self.explored,
            "pruned": self.pruned,
            "rounds": self.rounds,
            "max_frontier": self.max_frontier,
            "complete": self.complete,
            "stats": [self.stats_boxes, self.stats_concrete,
                      self.stats_widened],
            "unsupported": self.unsupported,
            "frontier": [_entry_to_dict(e) for e in self.frontier],
            "leaves": [_entry_to_dict(e) for e in self.leaves],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BnBCheckpoint":
        from repro.core import serialize as S

        S.check_version(data, "BnBCheckpoint")
        boxes, concrete, widened = data["stats"]
        return cls(
            seq=int(data["seq"]),
            explored=int(data["explored"]),
            pruned=int(data["pruned"]),
            rounds=int(data["rounds"]),
            max_frontier=int(data["max_frontier"]),
            complete=bool(data["complete"]),
            stats_boxes=int(boxes),
            stats_concrete=int(concrete),
            stats_widened=int(widened),
            frontier=[_entry_from_dict(e) for e in data["frontier"]],
            leaves=[_entry_from_dict(e) for e in data["leaves"]],
            unsupported=int(data.get("unsupported", 0)),
            domain=str(data.get("domain", "separate")),
        )


class _SearchState:
    """Counters and collections one search accumulates."""

    __slots__ = ("seq", "explored", "pruned", "rounds", "max_frontier",
                 "complete", "unsupported", "frontier", "leaves")

    def __init__(self):
        self.seq = 0
        self.explored = 0
        self.pruned = 0
        self.rounds = 0
        self.max_frontier = 1
        self.complete = True
        self.unsupported = 0
        self.frontier: List[Tuple] = []
        self.leaves: List[_Entry] = []


class BnBVerifier:
    """Branch-and-bound driver over a shared :class:`IntervalTransfer`."""

    def __init__(self, target: Program, rewrite: Program,
                 live_outs: Sequence[Union[str, Location]],
                 ranges: Dict[Union[str, Location], Tuple[float, float]],
                 memory: Optional[Memory] = None,
                 concrete_gp: Optional[Dict[int, int]] = None,
                 profile: bool = False,
                 domain: str = "separate"):
        from repro.verify.relational.domain import transfer_class

        transfer_class(domain)  # reject unknown domains up front
        self.spec = TransferSpec(
            target=target,
            rewrite=rewrite,
            live_outs=tuple(str(loc) for loc in live_outs),
            ranges=tuple((str(loc), float(lo), float(hi))
                         for loc, (lo, hi) in ranges.items()),
            memory=memory,
            concrete_gp=tuple((concrete_gp or {}).items()),
            profile=profile,
            domain=domain,
        )
        # Every box of the search runs through this one transfer.
        self.transfer = self.spec.build()
        self.last_result: Optional[BnBResult] = None

    @property
    def dims(self) -> Tuple[Dim, ...]:
        return self.transfer.dims

    def seed_indices(self, seeds) -> List[Tuple[Tuple[int, ...], float]]:
        out = []
        for values, err in seeds:
            out.append((indices_of_values(values, self.dims), float(err)))
        return out

    def run(self, config: BnBConfig = BnBConfig(),
            resume: Optional[BnBCheckpoint] = None,
            checkpoint_rounds: int = 0,
            on_checkpoint=None,
            checkpoint_seconds: float = 0.0) -> BnBResult:
        """Refine until a termination condition fires.

        Each round pops the worst frontier box, splits it along its
        widest dimension, and absorbs the left then the right child.
        ``checkpoint_rounds`` > 0 calls ``on_checkpoint`` with an exact
        :class:`BnBCheckpoint` every that-many refinement rounds;
        ``checkpoint_seconds`` > 0 additionally rate-limits checkpoint
        construction to one per that many wall-clock seconds (snapshots
        serialize the whole frontier — on fast searches the round gate
        alone would rebuild them far more often than any sink needs).
        ``resume`` continues from one and — for budget/gap-terminated
        configs — reproduces the uninterrupted run's partition and
        bounds exactly (deadline termination is wall-clock and outside
        the identity).
        """
        if config.jobs != 1:
            raise ValueError(
                f"BnBConfig.jobs must be 1, got {config.jobs}: the search "
                "runs in-process (worker processes measured no faster "
                "than one and were removed)")
        if resume is not None and resume.domain != self.spec.domain:
            raise ValueError(
                f"checkpoint domain {resume.domain!r} does not match "
                f"verifier domain {self.spec.domain!r}")
        start = time.monotonic()
        seeds = self.seed_indices(config.seeds)
        lower = max([err for _, err in seeds], default=0.0)
        stats = TransferStats()
        st = _SearchState()
        frontier = st.frontier
        gap = config.target_gap
        # The gap test needs the max bound over every entry not yet
        # split (frontier and leaves): a lazy max-heap of (-bound, seq)
        # whose split seqs are dropped only when they surface.
        unsplit: List[Tuple[float, int]] = []
        split: Set[int] = set()

        def track(entry: _Entry) -> None:
            if gap is not None:
                heapq.heappush(unsplit, (-entry.bound, entry.seq))

        def push(entry: _Entry) -> None:
            heapq.heappush(frontier, (entry.key(), entry))
            track(entry)

        def commit(children, elapsed: float,
                   op_secs: Optional[Dict[str, float]]) -> None:
            for result, box in children:
                push(self._absorb(st, stats, result, box, seeds, lower))
            stats.transfer_seconds += elapsed
            for op, secs in (op_secs or {}).items():
                stats.op_seconds[op] = stats.op_seconds.get(op, 0.0) + secs

        if resume is not None:
            self._restore(st, stats, resume)
            for entry in resume.frontier:
                push(entry)
            for entry in st.leaves:
                track(entry)
        else:
            root = self.transfer.root
            t0 = time.perf_counter()
            res, op_secs = self.transfer.analyze_unit(root)
            commit([(res, root)], time.perf_counter() - t0, op_secs)

        last_checkpoint = start
        termination = "exhausted"
        while frontier:
            if (checkpoint_rounds and on_checkpoint is not None
                    and st.rounds > 0
                    and st.rounds % checkpoint_rounds == 0):
                now = time.monotonic()
                if checkpoint_seconds <= 0 or \
                        now - last_checkpoint >= checkpoint_seconds:
                    on_checkpoint(self._snapshot(st, stats))
                    last_checkpoint = now
            if st.explored >= config.max_boxes:
                termination = "budget"
                break
            if config.deadline is not None and \
                    time.monotonic() - start > config.deadline:
                termination = "deadline"
                break
            if gap is not None:
                while unsplit and unsplit[0][1] in split:
                    split.discard(heapq.heappop(unsplit)[1])
                current = max(-unsplit[0][0], 0.0) if unsplit else 0.0
                if current <= lower + gap * max(lower, 1.0):
                    termination = "gap"
                    break

            entry: Optional[_Entry] = None
            while frontier:
                _, popped = heapq.heappop(frontier)
                if popped.bound <= lower and popped.priority < 2:
                    # Refining cannot lower the global max below the
                    # empirical lower bound: keep as a leaf.
                    st.leaves.append(popped)
                    st.pruned += 1
                    continue
                if not popped.box.splittable:
                    if not math.isfinite(popped.bound):
                        st.complete = False
                    st.leaves.append(popped)
                    continue
                entry = popped
                break
            if entry is None:
                break  # frontier drained into leaves
            st.rounds += 1
            if gap is not None:
                split.add(entry.seq)

            dim = entry.box.widest_dim()
            t0 = time.perf_counter()
            l_res, r_res, op_secs = self.transfer.analyze_split(entry.box,
                                                                dim)
            elapsed = time.perf_counter() - t0
            left, right = entry.box.split(dim)
            commit([(l_res, left), (r_res, right)], elapsed, op_secs)
            st.max_frontier = max(st.max_frontier, len(frontier))

        result = self._assemble(st, seeds, lower, stats, start, termination)
        self.last_result = result
        return result

    # ------------------------------------------------------------------

    def _priority(self, box: BitBox, bound: float, error: Optional[str],
                  seeds, lower: float) -> int:
        if error is not None:
            return 2
        if bound > lower and any(box.contains(idx) for idx, _ in seeds):
            return 1
        return 0

    def _absorb(self, st: _SearchState, stats: TransferStats, result,
                box: BitBox, seeds, lower: float) -> _Entry:
        """Fold one UnitResult into the search; returns its entry."""
        bound, per_loc, delta, error = result
        stats.boxes += delta[0]
        stats.concrete_bit_ops += delta[1]
        stats.widened_bit_ops += delta[2]
        st.explored += 1
        if error is not None:
            st.unsupported += 1
        entry = _Entry(self._priority(box, bound, error, seeds, lower),
                       bound, st.seq, box, per_loc)
        st.seq += 1
        return entry

    def _restore(self, st: _SearchState, stats: TransferStats,
                 resume: BnBCheckpoint) -> None:
        st.seq = resume.seq
        st.explored = resume.explored
        st.pruned = resume.pruned
        st.rounds = resume.rounds
        st.max_frontier = resume.max_frontier
        st.complete = resume.complete
        st.unsupported = resume.unsupported
        stats.boxes += resume.stats_boxes
        stats.concrete_bit_ops += resume.stats_concrete
        stats.widened_bit_ops += resume.stats_widened
        st.leaves = list(resume.leaves)

    def _snapshot(self, st: _SearchState, stats: TransferStats
                  ) -> BnBCheckpoint:
        return BnBCheckpoint(
            seq=st.seq, explored=st.explored, pruned=st.pruned,
            rounds=st.rounds, max_frontier=st.max_frontier,
            complete=st.complete,
            stats_boxes=stats.boxes,
            stats_concrete=stats.concrete_bit_ops,
            stats_widened=stats.widened_bit_ops,
            frontier=[entry for _, entry in st.frontier],
            leaves=list(st.leaves),
            unsupported=st.unsupported,
            domain=self.spec.domain)

    def _assemble(self, st: _SearchState, seeds, lower: float,
                  stats: TransferStats, start: float,
                  termination: str) -> BnBResult:
        leaves = st.leaves
        leaves.extend(entry for _, entry in st.frontier)
        complete = st.complete
        if any(not math.isfinite(e.bound) for e in leaves):
            complete = False

        bound = max((e.bound for e in leaves), default=0.0)
        worst = max(leaves, key=lambda e: e.bound, default=None)
        per_location = dict(worst.per_loc) if worst is not None and \
            worst.per_loc is not None else {}
        # Per-live-out certified bounds: each location's worst
        # contribution over *all* leaves.  A leaf with no breakdown
        # (unsupported transfer) certifies nothing per-output.
        locations = [str(loc) for loc in self.transfer.locations]
        if leaves and all(e.per_loc is not None for e in leaves):
            per_location_bounds = {
                loc: max(e.per_loc.get(loc, _INF) for e in leaves)
                for loc in locations}
        else:
            per_location_bounds = {loc: _INF for loc in locations} \
                if leaves else {}
        covered = covered_seed_count([e.box for e in leaves], seeds, bound)
        # Nominal opcode traffic: every successfully analyzed box runs
        # the full instruction mix (prefix sharing skips re-execution,
        # not accounting — the shared prefix still "covers" both kids).
        supported = st.explored - st.unsupported
        if self.transfer.op_histogram and supported > 0:
            stats.op_counts = {op: n * supported
                               for op, n in self.transfer.op_histogram.items()}
        return BnBResult(
            bound_ulps=bound,
            lower_bound=lower,
            boxes_explored=st.explored,
            boxes_pruned=st.pruned,
            leaves=[e.box for e in leaves],
            leaf_bounds=[e.bound for e in leaves],
            per_location=per_location,
            stats=stats,
            complete=complete,
            termination=termination,
            wall_time=time.monotonic() - start,
            rounds=st.rounds,
            max_frontier=st.max_frontier,
            seeds_covered=covered,
            unsupported=st.unsupported,
            per_location_bounds=per_location_bounds,
            domain=self.spec.domain,
        )

    def certificate(self, result: Optional[BnBResult] = None,
                    config: Optional[BnBConfig] = None):
        """Package a run's leaf partition as a checkable certificate."""
        from repro.verify.certificate import Certificate

        result = result if result is not None else self.last_result
        if result is None:
            raise ValueError("run() the verifier before asking for a "
                             "certificate")
        return Certificate.from_run(self.spec, self.dims, result,
                                    config=config)


def seeds_from_validation(validation_result, dims: Sequence[Dim]
                          ) -> Tuple[Tuple[Tuple[float, ...], float], ...]:
    """Counterexample seeds from a :class:`ValidationResult`.

    Maps the validator's argmax test case onto the verification
    dimensions; dimensions the test case does not constrain (e.g. point
    memory constants) fall back to their range's lower endpoint.  The
    observed error rides along as a certified-bound floor.
    """
    argmax = getattr(validation_result, "argmax", None)
    if argmax is None:
        return ()
    values = []
    for d in dims:
        try:
            values.append(decode_from(d.loc, argmax.value_of(d.loc)))
        except (KeyError, TypeError):
            from repro.verify.partition import value_of

            values.append(value_of(d.lo_index, d.ftype))
    return ((tuple(values), float(validation_result.max_err)),)
