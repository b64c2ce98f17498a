"""BnB verifier throughput vs the interpretive transfer oracle.

The search (``BnBVerifier.run``) runs the sound branch-and-bound
refinement in-process through translate-once compiled transfers, with
prefix sharing between split children.  The interpretive transfer
(``IntervalTransfer.analyze_interpretive``) is the original
per-instruction dispatcher: it analyzes one box at a time from scratch
and is the oracle the compiled path must match.  This benchmark
divides the search's end-to-end boxes/sec by the oracle's boxes/sec
over the same run's leaves.

Before a ratio counts, an identity guard asserts that the oracle
re-derives every leaf's recorded bound exactly (a leaf the oracle
cannot analyze counts as an infinite bound); a throughput number for a
wrong answer would be meaningless.

As a script it writes the ``BENCH_verify.json`` baseline consumed by
CI and fails if fewer than ``--min-kernels`` kernels reach the
``--min-ratio`` floor::

    PYTHONPATH=src python benchmarks/bench_verify.py \\
        --out BENCH_verify.json --min-ratio 1.5 --min-kernels 3
"""

import json
import math
import sys
import time

from repro.kernels.libimf import LIBIMF_KERNELS
from repro.verify.bnb import BnBConfig, BnBVerifier
from repro.verify.interval import IntervalUnsupported

KERNELS = tuple(sorted(LIBIMF_KERNELS))
# Degree-reduced rewrites give a real, nonzero approximation error.
REDUCED_DEGREE = {"sin": 9, "cos": 8, "tan": 9, "log": 12, "exp": 8}
BUDGET = 512
REPEATS = 3


def _verifier(name):
    factory = LIBIMF_KERNELS[name]
    spec = factory()
    rewrite = factory(REDUCED_DEGREE[name]).program
    return BnBVerifier(spec.program, rewrite, spec.live_outs,
                       dict(spec.ranges))


def _interpretive_bounds(verifier, leaves):
    """The oracle's bound for every leaf, and its boxes/sec doing so."""
    transfer = verifier.transfer
    bounds = []
    start = time.perf_counter()
    for leaf in leaves:
        try:
            bound, _, _ = transfer.analyze_interpretive(leaf)
        except IntervalUnsupported:
            bound = math.inf
        bounds.append(bound)
    return bounds, len(leaves) / (time.perf_counter() - start)


def measure_kernel(name, budget=BUDGET, repeats=REPEATS):
    """Best-of-``repeats`` boxes/sec of the search and of the oracle on
    its leaves, measured alternately so drift hits both alike."""
    verifier = _verifier(name)
    config = BnBConfig(max_boxes=budget)
    engine = oracle = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        result = verifier.run(config)
        engine = max(engine, result.boxes_explored /
                     (time.perf_counter() - start))
        bounds, rate = _interpretive_bounds(verifier, result.leaves)
        # Identity guard: the oracle re-derives every recorded bound.
        assert bounds == list(result.leaf_bounds), \
            f"compiled leaf bounds diverged from the oracle on {name}"
        oracle = max(oracle, rate)
    return {"kernel": name, "budget": budget,
            "boxes_explored": result.boxes_explored,
            "leaves": len(result.leaves),
            "bound_ulps": result.bound_ulps,
            "engine_boxes_per_sec": engine,
            "interpretive_boxes_per_sec": oracle,
            "ratio": engine / oracle}


def run_baseline(kernels=KERNELS, budget=BUDGET, repeats=REPEATS):
    rows = [measure_kernel(name, budget=budget, repeats=repeats)
            for name in kernels]
    ratios = sorted((r["ratio"] for r in rows), reverse=True)
    return {
        "benchmark": "bnb_verify_throughput",
        "budget": budget,
        "repeats": repeats,
        "note": "ratio = end-to-end BnBVerifier.run boxes/sec over "
                "IntervalTransfer.analyze_interpretive boxes/sec on the "
                "same run's leaves (best of repeats each), after the "
                "oracle re-derived every leaf bound exactly.",
        "results": rows,
        "min_ratio": ratios[-1],
        "median_ratio": ratios[len(ratios) // 2],
    }


def main():
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", nargs="*", default=list(KERNELS))
    parser.add_argument("--budget", type=int, default=BUDGET)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--out", default="BENCH_verify.json")
    parser.add_argument("--min-ratio", type=float, default=0.0,
                        help="the search/oracle boxes-per-second floor a "
                             "kernel must reach to count toward "
                             "--min-kernels")
    parser.add_argument("--min-kernels", type=int, default=3,
                        help="fail unless at least this many kernels "
                             "reach the --min-ratio floor (CI "
                             "regression gate)")
    args = parser.parse_args()
    baseline = run_baseline(kernels=tuple(args.kernels),
                            budget=args.budget, repeats=args.repeats)
    with open(args.out, "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    for row in baseline["results"]:
        print(f"{row['kernel']}: search "
              f"{row['engine_boxes_per_sec']:,.0f} | interpretive "
              f"{row['interpretive_boxes_per_sec']:,.0f} boxes/s "
              f"({row['ratio']:.2f}x)")
    print(f"wrote {args.out}")
    if args.min_ratio > 0.0:
        reached = [row["kernel"] for row in baseline["results"]
                   if row["ratio"] >= args.min_ratio]
        print(f"{len(reached)}/{len(baseline['results'])} kernels at or "
              f"above {args.min_ratio:.2f}x: {', '.join(reached)}")
        if len(reached) < args.min_kernels:
            print(f"FAIL: only {len(reached)} kernels reached the "
                  f"{args.min_ratio:.2f}x search/interpretive floor "
                  f"(need {args.min_kernels})", file=sys.stderr)
            sys.exit(1)


if __name__ == "__main__":
    main()
