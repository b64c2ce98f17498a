"""E1 (Section 5.1): test-case dispatch throughput, emulator vs JIT.

Paper: the JIT-assembler evaluator dispatches ~1M tests/sec and is up to
two orders of magnitude faster than the emulator-based original STOKE.
Reproduced shape: the JIT backend beats the emulator by >10x on every
libimf kernel (absolute rates are Python-scale).

Three JIT evaluator styles are measured so the batched-evaluator speedup
stays pinned as a regression baseline.  Each one covers the full
per-test evaluator path — state setup, execution, live-out read-back:

* ``baseline`` — a reconstruction of the pre-batching ``Runner.run``
  loop: one ``MachineState`` template copy per test, one Python-level
  ``run`` call, and a ``loc.read`` dict comprehension for the live-outs.
* ``sequential`` — ``Runner.run_values`` per test: pooled reset-in-place
  states plus precompiled live-out readers (state-pool win only).
* ``batched`` — ``Runner.run_batch``: the whole test set inside one
  specialized compiled-function call over pooled states.

As a script it writes the ``BENCH_throughput.json`` baseline consumed by
CI and fails if the JIT/emulator ratio or the batched-over-baseline
speedup drop below their floors::

    PYTHONPATH=src python benchmarks/bench_throughput.py \\
        --out BENCH_throughput.json --min-ratio 5 --min-batch-speedup 1.5

Under pytest it doubles as a pytest-benchmark suite
(``pytest benchmarks/bench_throughput.py --benchmark-only``).
"""

import json
import random
import sys
import time

import pytest

from repro.core.runner import Runner
from repro.kernels.libimf import LIBIMF_KERNELS
from repro.x86.emulator import Emulator
from repro.x86.jit import compile_program

KERNELS = ("sin", "log", "exp")
TESTS = 300
REPEATS = 3


def _cases(name, count):
    spec = LIBIMF_KERNELS[name]()
    return spec, spec.testcases(random.Random(0), count)


@pytest.mark.parametrize("name", KERNELS)
def test_emulator_dispatch(benchmark, name):
    spec, cases = _cases(name, 64)
    emulator = Emulator()

    def dispatch():
        for tc in cases:
            emulator.run(spec.program, tc.pooled_state())

    benchmark(dispatch)
    benchmark.extra_info["tests_per_round"] = len(cases)
    benchmark.extra_info["backend"] = "emulator"


@pytest.mark.parametrize("name", KERNELS)
def test_jit_dispatch(benchmark, name):
    spec, cases = _cases(name, 64)
    compiled = compile_program(spec.program)

    def dispatch():
        for tc in cases:
            compiled.run(tc.pooled_state(compiled.writes))

    benchmark(dispatch)
    benchmark.extra_info["tests_per_round"] = len(cases)
    benchmark.extra_info["backend"] = "jit"


@pytest.mark.parametrize("name", KERNELS)
def test_jit_batched_dispatch(benchmark, name):
    spec, cases = _cases(name, 64)
    compiled = compile_program(spec.program)
    compiled.specialize_batch()  # keep its compile out of the timing

    def dispatch():
        compiled.run_batch(
            [tc.pooled_state(compiled.writes) for tc in cases])

    benchmark(dispatch)
    benchmark.extra_info["tests_per_round"] = len(cases)
    benchmark.extra_info["backend"] = "jit-batched"


def test_jit_compilation(benchmark):
    """One-time compilation cost per proposal (amortized by the cache)."""
    spec = LIBIMF_KERNELS["sin"]()
    from repro.x86.jit import CompiledProgram

    benchmark(CompiledProgram, spec.program)


def _best_rates(fns, tests, repeats):
    """Best-of-``repeats`` rate for each fn, measured round-robin.

    Interleaving the candidates inside each round (instead of timing one
    fn to completion before the next) keeps CPU frequency drift from
    biasing whichever style happens to be measured last.
    """
    best = {label: float("inf") for label, _ in fns}
    for _ in range(repeats):
        for label, fn in fns:
            start = time.perf_counter()
            fn()
            best[label] = min(best[label], time.perf_counter() - start)
    return {label: tests / elapsed for label, elapsed in best.items()}


def measure_kernel_rates(name, tests=TESTS, repeats=REPEATS):
    """All four evaluator rates for one kernel, in tests/sec."""
    spec, cases = _cases(name, tests)
    emulator = Emulator()
    runner = Runner(spec.live_outs, backend="jit")
    compiled = runner.prepare(spec.program)
    compiled.specialize_batch()
    live_outs = runner.live_outs

    def emulator_dispatch():
        for tc in cases:
            emulator.run(spec.program, tc.pooled_state())

    def jit_baseline_dispatch():
        # The pre-batching Runner.run loop: a fresh template copy and a
        # per-location dict read-back for every single test.
        for tc in cases:
            state = tc.build_state()
            if compiled.run(state).ok:
                {loc: loc.read(state) for loc in live_outs}

    def jit_sequential_dispatch():
        for tc in cases:
            runner.run_values(compiled, tc)

    def jit_batched_dispatch():
        runner.run_batch(compiled, cases)

    # Differential guard: the batched path must reproduce the sequential
    # live-out bits exactly (the test suite checks this exhaustively;
    # here it protects the benchmark numbers themselves).
    expected = []
    for tc in cases:
        state = tc.build_state()
        compiled.run(state)
        expected.append((list(state.gp), list(state.xmm_lo),
                         list(state.xmm_hi)))
    states = [tc.pooled_state() for tc in cases]
    compiled.run_batch(states)
    for state, (gp, lo, hi) in zip(states, expected):
        assert (state.gp, state.xmm_lo, state.xmm_hi) == (gp, lo, hi), \
            f"batched dispatch diverged from sequential on {name}"

    rates = _best_rates(
        (("emulator", emulator_dispatch),
         ("jit_baseline", jit_baseline_dispatch),
         ("jit_sequential", jit_sequential_dispatch),
         ("jit_batched", jit_batched_dispatch)),
        tests, repeats)
    return {
        "kernel": name,
        "tests": tests,
        "emulator_tests_per_sec": rates["emulator"],
        "jit_baseline_tests_per_sec": rates["jit_baseline"],
        "jit_sequential_tests_per_sec": rates["jit_sequential"],
        "jit_batched_tests_per_sec": rates["jit_batched"],
    }


def run_baseline(tests=TESTS, repeats=REPEATS):
    """Measure every libimf kernel and return the JSON-ready baseline."""
    rows = []
    for name in LIBIMF_KERNELS:
        row = measure_kernel_rates(name, tests=tests, repeats=repeats)
        row["jit_emulator_ratio"] = (row["jit_batched_tests_per_sec"]
                                     / row["emulator_tests_per_sec"])
        row["batch_speedup_vs_baseline"] = (
            row["jit_batched_tests_per_sec"]
            / row["jit_baseline_tests_per_sec"])
        rows.append(row)
    return {
        "benchmark": "testcase_dispatch_throughput",
        "tests_per_kernel": tests,
        "repeats": repeats,
        "note": "jit_baseline reconstructs the pre-batching Runner.run "
                "loop on the current tree; it understates the full PR-2 "
                "gain because the baseline also benefits from the inlined "
                "bits<->float conversions (measured against the actual "
                "pre-PR checkout, the batched evaluator is 2.2-4.4x).",
        "results": rows,
        "min_jit_emulator_ratio": min(r["jit_emulator_ratio"]
                                      for r in rows),
        "min_batch_speedup_vs_baseline": min(
            r["batch_speedup_vs_baseline"] for r in rows),
    }


def main():
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tests", type=int, default=TESTS)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--out", default="BENCH_throughput.json")
    parser.add_argument("--min-ratio", type=float, default=0.0,
                        help="fail if JIT-batched/emulator drops below "
                             "this on any kernel (CI regression floor)")
    parser.add_argument("--min-batch-speedup", type=float, default=0.0,
                        help="fail if batched/pre-batching-baseline drops "
                             "below this on any kernel")
    args = parser.parse_args()
    baseline = run_baseline(tests=args.tests, repeats=args.repeats)
    with open(args.out, "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    for row in baseline["results"]:
        print(f"{row['kernel']}: emulator {row['emulator_tests_per_sec']:,.0f}"
              f" | jit {row['jit_sequential_tests_per_sec']:,.0f}"
              f" | jit-batched {row['jit_batched_tests_per_sec']:,.0f} t/s"
              f" ({row['jit_emulator_ratio']:.1f}x emulator, "
              f"{row['batch_speedup_vs_baseline']:.2f}x pre-batching)")
    print(f"wrote {args.out}")
    failed = False
    if baseline["min_jit_emulator_ratio"] < args.min_ratio:
        print(f"FAIL: JIT/emulator ratio "
              f"{baseline['min_jit_emulator_ratio']:.2f} "
              f"< floor {args.min_ratio}", file=sys.stderr)
        failed = True
    if baseline["min_batch_speedup_vs_baseline"] < args.min_batch_speedup:
        print(f"FAIL: batch speedup "
              f"{baseline['min_batch_speedup_vs_baseline']:.2f} "
              f"< floor {args.min_batch_speedup}", file=sys.stderr)
        failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
