"""Vector (SoA) backend throughput vs the JIT's batched evaluator.

The vector backend executes a whole test set as numpy operations over a
test-vector axis (see ``repro.x86.vector``), replacing the JIT's
per-test Python dispatch with a handful of C-level array operations per
instruction.  This benchmark pins that win as a regression floor: on the
libimf kernels the vector path must stay comfortably ahead of
``jit_batched`` (the previous fastest evaluator) through the full
``Runner.run_batch`` surface — state setup, execution, and live-out
read-back included.

All rates are measured through ``Runner.run_batch``, so backends compete
on the exact path ``catalog build --measure`` times
(``repro.core.perf.measure_ns_per_test``).  A differential guard asserts
the vector live-out bits equal the JIT's before anything is timed.

As a script it writes the ``BENCH_vector.json`` baseline consumed by CI
and fails if fewer than ``--min-kernels`` kernels reach the
``--min-vector-ratio`` floor::

    PYTHONPATH=src python benchmarks/bench_vector.py \\
        --out BENCH_vector.json --min-vector-ratio 1.5 --min-kernels 3

Under pytest it doubles as a pytest-benchmark suite
(``pytest benchmarks/bench_vector.py --benchmark-only``).
"""

import json
import random
import sys
import time

import pytest

from repro.core.runner import Runner
from repro.kernels.libimf import LIBIMF_KERNELS

KERNELS = tuple(LIBIMF_KERNELS)
TESTS = 1000
REPEATS = 5


def _cases(name, count):
    spec = LIBIMF_KERNELS[name]()
    return spec, spec.testcases(random.Random(0), count)


@pytest.mark.parametrize("name", KERNELS)
def test_vector_dispatch(benchmark, name):
    spec, cases = _cases(name, 256)
    runner = Runner(spec.live_outs, backend="vector")
    prepared = runner.prepare(spec.program)
    runner.run_batch(prepared, cases)  # warm the pack cache

    benchmark(runner.run_batch, prepared, cases)
    benchmark.extra_info["tests_per_round"] = len(cases)
    benchmark.extra_info["backend"] = "vector"
    benchmark.extra_info["vector_coverage"] = prepared.vector_coverage


def test_vectorize_translation(benchmark):
    """One-time translation cost per proposal (amortized by the cache)."""
    from repro.x86.vector import VectorizedProgram

    spec = LIBIMF_KERNELS["sin"]()
    benchmark(VectorizedProgram, spec.program)


def _best_rates(fns, tests, repeats):
    """Best-of-``repeats`` rate for each fn, measured round-robin.

    Interleaving the candidates inside each round (instead of timing one
    fn to completion before the next) keeps CPU frequency drift from
    biasing whichever backend happens to be measured last.
    """
    best = {label: float("inf") for label, _ in fns}
    for _ in range(repeats):
        for label, fn in fns:
            start = time.perf_counter()
            fn()
            best[label] = min(best[label], time.perf_counter() - start)
    return {label: tests / elapsed for label, elapsed in best.items()}


def measure_kernel_rates(name, tests=TESTS, repeats=REPEATS):
    """Per-backend ``Runner.run_batch`` rates for one kernel, tests/sec."""
    spec, cases = _cases(name, tests)
    runners = {backend: Runner(spec.live_outs, backend=backend)
               for backend in ("emulator", "jit", "vector")}
    prepared = {backend: runner.prepare(spec.program)
                for backend, runner in runners.items()}

    # Differential guard: the vector path must reproduce the JIT's
    # live-out bits exactly (the test suite checks this exhaustively;
    # here it protects the benchmark numbers themselves).  The JIT's
    # call also compiles its live-out entry point outside the timing.
    expected = runners["jit"].run_batch(prepared["jit"], cases)
    got = runners["vector"].run_batch(prepared["vector"], cases)
    assert got == expected, f"vector dispatch diverged from the JIT on {name}"

    fns = tuple(
        (backend, lambda b=backend: runners[b].run_batch(prepared[b], cases))
        for backend in ("emulator", "jit", "vector"))
    rates = _best_rates(fns, tests, repeats)
    return {
        "kernel": name,
        "tests": tests,
        "vector_coverage": prepared["vector"].vector_coverage,
        "emulator_tests_per_sec": rates["emulator"],
        "jit_batched_tests_per_sec": rates["jit"],
        "vector_tests_per_sec": rates["vector"],
    }


def run_baseline(tests=TESTS, repeats=REPEATS):
    """Measure every libimf kernel and return the JSON-ready baseline."""
    rows = []
    for name in KERNELS:
        row = measure_kernel_rates(name, tests=tests, repeats=repeats)
        row["vector_jit_ratio"] = (row["vector_tests_per_sec"]
                                   / row["jit_batched_tests_per_sec"])
        rows.append(row)
    ratios = sorted((r["vector_jit_ratio"] for r in rows), reverse=True)
    return {
        "benchmark": "vector_backend_throughput",
        "tests_per_kernel": tests,
        "repeats": repeats,
        "note": "rates go through Runner.run_batch end to end; "
                "vector_jit_ratio compares the SoA backend against the "
                "JIT's batched evaluator on the same tests.",
        "results": rows,
        "min_vector_jit_ratio": ratios[-1],
        "median_vector_jit_ratio": ratios[len(ratios) // 2],
    }


def main():
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tests", type=int, default=TESTS)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--out", default="BENCH_vector.json")
    parser.add_argument("--min-vector-ratio", type=float, default=0.0,
                        help="the vector/jit_batched floor a kernel must "
                             "reach to count toward --min-kernels")
    parser.add_argument("--min-kernels", type=int, default=3,
                        help="fail unless at least this many kernels reach "
                             "the --min-vector-ratio floor (CI regression "
                             "gate)")
    args = parser.parse_args()
    baseline = run_baseline(tests=args.tests, repeats=args.repeats)
    with open(args.out, "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    for row in baseline["results"]:
        print(f"{row['kernel']}: emulator {row['emulator_tests_per_sec']:,.0f}"
              f" | jit-batched {row['jit_batched_tests_per_sec']:,.0f}"
              f" | vector {row['vector_tests_per_sec']:,.0f} t/s"
              f" ({row['vector_jit_ratio']:.2f}x jit-batched, "
              f"coverage {row['vector_coverage']:.2f})")
    print(f"wrote {args.out}")
    if args.min_vector_ratio > 0.0:
        reached = [row["kernel"] for row in baseline["results"]
                   if row["vector_jit_ratio"] >= args.min_vector_ratio]
        print(f"{len(reached)}/{len(baseline['results'])} kernels at or "
              f"above {args.min_vector_ratio:.2f}x: {', '.join(reached)}")
        if len(reached) < args.min_kernels:
            print(f"FAIL: only {len(reached)} kernels reached the "
                  f"{args.min_vector_ratio:.2f}x vector/jit floor "
                  f"(need {args.min_kernels})", file=sys.stderr)
            sys.exit(1)


if __name__ == "__main__":
    main()
