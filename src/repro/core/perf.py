"""The performance term ``perf(R; T)`` of Equation 2.

STOKE's performance estimate during search is a static sum of
per-instruction latencies (fast to compute and monotone in the true cost
for straight-line code); final speedup numbers reported by the harness are
ratios of these latency sums, and wall-clock throughput is measured
separately by the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.x86.program import Program


@dataclass(frozen=True)
class LatencyPerf:
    """Latency-ratio performance term, normalized to the target.

    ``perf(R) = scale * latency(R) / latency(T)``, so a rewrite as fast as
    the target costs ``scale`` and the empty rewrite costs 0.  ``scale``
    fixes the exchange rate between cycles and the (log-compressed) ULP
    error units of the equivalence term.
    """

    target_latency: int
    scale: float = 20.0

    def __call__(self, rewrite: Program) -> float:
        if self.target_latency <= 0:
            return float(rewrite.latency)
        return self.scale * rewrite.latency / self.target_latency


def speedup(target: Program, rewrite: Program) -> float:
    """Speedup of a rewrite over the target under the latency model."""
    rl = rewrite.latency
    return float("inf") if rl == 0 else target.latency / rl


def measure_ns_per_test(program: Program, tests, live_outs,
                        backend: str = "vector",
                        repeats: int = 3) -> float:
    """Measured wall-clock latency: best-of-``repeats`` nanoseconds per
    test of one :meth:`~repro.core.runner.Runner.run_batch` pass.

    This is the catalog's optional measured latency axis.  Wall-clock
    numbers are machine-dependent, so they never enter content-addressed
    documents — callers attach them as side-band measurements.
    """
    import time

    from repro.core.runner import Runner

    if not tests:
        raise ValueError("latency probe needs at least one test case")
    runner = Runner(live_outs, backend=backend)
    prepared = runner.prepare(program)
    # Warm-up: fills the caches and, on jit, compiles the live-out entry
    # point the repeats time.
    runner.run_batch(prepared, tests)
    best = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        runner.run_batch(prepared, tests)
        best = min(best, time.perf_counter() - start)
    return best * 1e9 / len(tests)
