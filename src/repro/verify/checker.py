"""Independent certificate checker.

Re-establishes a certificate's claim from scratch, sharing *nothing*
with the branch-and-bound search loop except the interval transfer
functions themselves (:class:`repro.verify.interval.IntervalTransfer`,
which the search also cannot weaken — it only chooses *where* to apply
them).  The checker discharges three obligations:

1. **Identity** — the SHA-256 digests of the supplied target/rewrite
   programs, memory image, and concrete-GP environment match what the
   certificate was derived against.
2. **Coverage** — the leaf boxes tile the root box exactly in bit space
   (:func:`repro.verify.partition.check_tiling`): integer volume
   accounting plus pairwise disjointness, so every representable input
   lies in exactly one leaf.
3. **Bounds** — every leaf's recorded bound is reproduced by a fresh
   interval transfer over that leaf; a recorded bound below what the
   transfer derives is unjustified and rejected, and so is a NaN bound.
   Infinite recorded bounds (analysis-unreachable leaves) are admitted
   only in certificates honestly marked ``complete = False``.  The
   leaves are all known up front, so they are derived as lanes of
   :meth:`~repro.verify.interval.IntervalTransfer.analyze_batch`,
   ``CHUNK_LEAVES`` at a time: numpy columns for the FP interval steps,
   the compiled closures lane by lane for the rest.  Each lane's bound,
   bit-op counts and error text are exactly the per-box closures'.

Obligations 2 and 3 together give the certificate's global claim: the
true error at *any* representable in-range input is at most
``max(leaf bounds) = bound_ulps``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.x86.memory import Memory
from repro.x86.program import Program

from repro.verify.certificate import (
    Certificate,
    memory_digest,
    program_digest,
)
from repro.verify.interval import TransferStats, UnitResult
from repro.verify.partition import BitBox, check_tiling
from repro.verify.relational.domain import transfer_class

# Leaves derived per lane batch.  One chunk's lane states and results
# are alive at a time: on the end-to-end verify workload (2-vCPU host)
# one batch per certificate (up to 2,049 leaves) raised peak RSS from
# 45.2 to 59.8 MB, chunks of 256 to 46.5 MB.
CHUNK_LEAVES = 256


@dataclass
class CheckReport:
    """Outcome of an independent certificate check."""

    ok: bool
    failures: List[str]
    leaves_checked: int
    rechecked_bound: float
    stats: TransferStats = field(default_factory=TransferStats)

    def __bool__(self) -> bool:
        return self.ok


def check(cert: Certificate, target: Program, rewrite: Program,
          memory: Optional[Memory] = None,
          concrete_gp: Optional[Dict[int, int]] = None,
          max_failures: int = 16) -> CheckReport:
    """Re-verify a certificate against the programs it claims to bound.

    Returns a :class:`CheckReport`; ``report.ok`` is True iff every
    obligation holds.  Checking stops early once ``max_failures``
    failures have been collected (enough evidence to reject).
    """
    failures: List[str] = []

    # Obligation 1: identity.
    if program_digest(target) != cert.target_digest:
        failures.append("target program digest mismatch")
    if program_digest(rewrite) != cert.rewrite_digest:
        failures.append("rewrite program digest mismatch")
    if memory_digest(memory) != cert.memory_digest:
        failures.append("memory image digest mismatch")
    if tuple(sorted((concrete_gp or {}).items())) != cert.concrete_gp:
        failures.append("concrete GP environment mismatch")
    if failures:
        return CheckReport(ok=False, failures=failures, leaves_checked=0,
                           rechecked_bound=math.inf)

    # Obligation 2: the leaves tile the root box exactly.
    leaves = cert.leaf_boxes()
    failures.extend(check_tiling(cert.root_box(), leaves))
    if len(cert.leaf_bounds) != len(leaves):
        failures.append(
            f"{len(leaves)} leaves but {len(cert.leaf_bounds)} bounds")
    if failures:
        return CheckReport(ok=False, failures=failures[:max_failures],
                           leaves_checked=0, rechecked_bound=math.inf)

    # Obligation 3: every recorded leaf bound is justified by a fresh
    # transfer, built here in the certificate's own abstract domain —
    # a relational certificate is rechecked relationally, a separate
    # one with independent hulls.
    try:
        cls = transfer_class(getattr(cert, "domain", "separate"))
    except ValueError as exc:
        return CheckReport(ok=False, failures=[str(exc)],
                           leaves_checked=0, rechecked_bound=math.inf)
    transfer = cls(
        target, rewrite, list(cert.live_outs), cert.value_ranges(),
        memory=memory, concrete_gp=dict(concrete_gp or {}))
    stats = TransferStats()
    rechecked = 0.0
    checked = 0
    derived_leaves = zip(_derive(transfer, leaves, stats), cert.leaf_bounds)
    for i, ((derived, _, counts, error), recorded) in enumerate(
            derived_leaves):
        if error is None:
            stats.boxes += counts[0]
            stats.concrete_bit_ops += counts[1]
            stats.widened_bit_ops += counts[2]
        elif math.isfinite(recorded):
            failures.append(
                f"leaf {i}: recorded bound {recorded} but the "
                f"analysis cannot reach the box ({error})")
        if math.isnan(recorded):
            failures.append(f"leaf {i}: recorded bound is NaN")
        elif derived > recorded:
            failures.append(
                f"leaf {i}: recorded bound {recorded} below the "
                f"derived bound {derived}")
        if math.isinf(recorded) and cert.complete:
            failures.append(
                f"leaf {i}: infinite bound in a certificate marked "
                f"complete")
        rechecked = max(rechecked, min(derived, recorded))
        checked += 1
        if len(failures) >= max_failures:
            break
    if stats.boxes:
        # Every analyzed leaf runs each compiled step once.
        stats.op_counts = {op: n * stats.boxes
                           for op, n in transfer.op_histogram.items()}

    # The headline bound must cover every leaf.
    if math.isnan(cert.bound_ulps):
        failures.append("certificate bound is NaN")
    worst = max(cert.leaf_bounds, default=0.0)
    if cert.bound_ulps < worst:
        failures.append(
            f"certificate bound {cert.bound_ulps} below worst leaf "
            f"bound {worst}")
    if math.isnan(cert.lower_bound):
        failures.append("lower bound is NaN")
    elif cert.lower_bound > cert.bound_ulps:
        failures.append(
            f"lower bound {cert.lower_bound} exceeds certified bound "
            f"{cert.bound_ulps}")

    return CheckReport(
        ok=not failures,
        failures=failures[:max_failures],
        leaves_checked=checked,
        rechecked_bound=rechecked if checked else math.inf,
        stats=stats,
    )


def _derive(transfer, leaves: List[BitBox], stats: TransferStats
            ) -> Iterator[UnitResult]:
    """Every leaf's fresh analysis, ``CHUNK_LEAVES`` lanes at a time.

    Lazy, so a check that stops at ``max_failures`` analyzes no further
    chunk, and only one chunk's lane states and results are alive at a
    time.  Adds each chunk's wall time to ``stats.transfer_seconds``.
    """
    for start in range(0, len(leaves), CHUNK_LEAVES):
        t0 = time.perf_counter()
        results = transfer.analyze_batch(leaves[start:start + CHUNK_LEAVES])
        stats.transfer_seconds += time.perf_counter() - t0
        yield from results
