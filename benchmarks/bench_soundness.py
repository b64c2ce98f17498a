"""Sound branch-and-bound verification: convergence and dominance.

Tracks the verifier's convergence: for each kernel, the certified bound
at box budgets 64/256/1024/4096, checked against two obligations —

* **Dominance**: a Geweke-convergence-checked MCMC validation run's max
  observed error (a true lower bound on the sup error) never exceeds
  any certified bound; the validator's argmax also seeds the search.
* **Certificate round-trip**: the run's certificate survives JSON
  serialization and an independent :func:`repro.verify.checker.check`
  (digest match, exact bit-space tiling, re-derived leaf bounds).

As a script it writes the ``BENCH_soundness.json`` baseline consumed by
CI and fails on any dominance or certificate violation::

    PYTHONPATH=src python benchmarks/bench_soundness.py \\
        --kernels exp log --budgets 64 256 --out BENCH_soundness.json

Under pytest it doubles as a pytest-benchmark suite
(``pytest benchmarks/bench_soundness.py --benchmark-only``).
"""

import json
import math
import sys

import pytest

from repro.kernels.libimf import LIBIMF_KERNELS
from repro.validation import ValidationConfig, Validator
from repro.verify import checker
from repro.verify.bnb import BnBConfig, BnBVerifier, seeds_from_validation
from repro.verify.certificate import Certificate

BUDGETS = (64, 256, 1024, 4096)
SEED_PROPOSALS = 2_000

# Degree-reduced rewrites: real approximation error for the bound to
# chase, same instruction mix as the target.
REDUCED_DEGREE = {"sin": 9, "cos": 8, "tan": 9, "log": 12, "exp": 8,
                  "exp_s3d": 10}


def _setup(name):
    factory = LIBIMF_KERNELS[name]
    spec = factory()
    rewrite = factory(REDUCED_DEGREE[name]).program
    return spec, rewrite


def _validate(spec, rewrite, proposals=SEED_PROPOSALS):
    validator = Validator(spec.program, rewrite, spec.live_outs,
                          dict(spec.ranges), spec.base_testcase)
    return validator.validate(ValidationConfig(
        max_proposals=proposals, seed=0))


def measure_kernel(name, budgets=BUDGETS, seed_proposals=SEED_PROPOSALS):
    """Bound-vs-budget curve for one kernel, with dominance and
    certificate checks folded in.  Raises AssertionError on violation."""
    spec, rewrite = _setup(name)
    validation = _validate(spec, rewrite, proposals=seed_proposals)
    verifier = BnBVerifier(spec.program, rewrite, spec.live_outs,
                           dict(spec.ranges))
    seeds = seeds_from_validation(validation, verifier.dims)

    series = []
    cert_info = None
    for budget in budgets:
        config = BnBConfig(max_boxes=budget, seeds=seeds)
        result = verifier.run(config)
        assert result.complete, \
            f"{name}: incomplete analysis at budget {budget}"
        assert math.isfinite(result.bound_ulps), \
            f"{name}: infinite bound at budget {budget}"
        # Dominance: the certified bound covers the validator's
        # worst observed error.
        assert validation.max_err <= result.bound_ulps, \
            f"{name}: validator error {validation.max_err} above " \
            f"certified bound {result.bound_ulps} (budget {budget})"
        series.append({
            "budget": budget,
            "bound_ulps": result.bound_ulps,
            "boxes_explored": result.boxes_explored,
            "boxes_pruned": result.boxes_pruned,
            "wall_time": result.wall_time,
            "termination": result.termination,
            "max_frontier": result.max_frontier,
        })
        if cert_info is None:
            # Round-trip the first certificate through JSON and the
            # independent checker.
            cert = verifier.certificate(result, config=config)
            roundtrip = Certificate.from_json(cert.to_json())
            assert roundtrip == cert, f"{name}: certificate round trip"
            report = checker.check(roundtrip, spec.program, rewrite)
            assert report.ok, \
                f"{name}: certificate rejected: {report.failures}"
            cert_info = {
                "leaves": len(cert.leaves),
                "size_bytes": cert.size_bytes,
                "rechecked_bound": report.rechecked_bound,
            }

    # Monotonicity: more budget never loosens.
    for a, b in zip(series, series[1:]):
        assert b["bound_ulps"] <= a["bound_ulps"] * (1 + 1e-12), \
            f"{name}: bound loosened from budget {a['budget']} to " \
            f"{b['budget']}"

    return {
        "kernel": name,
        "loc": spec.loc,
        "rewrite_degree": REDUCED_DEGREE[name],
        "validator_max_err": validation.max_err,
        "validator_converged": validation.converged,
        "seed_proposals": seed_proposals,
        "series": series,
        "certificate": cert_info,
        "tightening_64_to_max": (
            series[0]["bound_ulps"] / series[-1]["bound_ulps"]
            if series[-1]["bound_ulps"] else 1.0),
    }


def run_baseline(kernels=("exp", "log"), budgets=BUDGETS,
                 seed_proposals=SEED_PROPOSALS):
    rows = [measure_kernel(name, budgets=budgets,
                           seed_proposals=seed_proposals)
            for name in kernels]
    return {
        "benchmark": "bnb_soundness",
        "budgets": list(budgets),
        "note": "certified bound vs box budget; every "
                "bound is asserted to dominate a seeded MCMC validation "
                "run, and one certificate per kernel is round-tripped "
                "through JSON and the independent checker.",
        "results": rows,
    }


@pytest.mark.parametrize("name", ("exp", "log"))
@pytest.mark.parametrize("budget", (64, 256))
def test_bnb_bound(benchmark, name, budget):
    spec, rewrite = _setup(name)
    verifier = BnBVerifier(spec.program, rewrite, spec.live_outs,
                           dict(spec.ranges))
    result = benchmark.pedantic(
        verifier.run, args=(BnBConfig(max_boxes=budget),),
        rounds=1, iterations=1)
    benchmark.extra_info["bound_ulps"] = result.bound_ulps
    benchmark.extra_info["boxes_explored"] = result.boxes_explored
    assert result.complete


def main():
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", nargs="*", default=["exp", "log"])
    parser.add_argument("--budgets", nargs="*", type=int,
                        default=list(BUDGETS))
    parser.add_argument("--seed-proposals", type=int,
                        default=SEED_PROPOSALS)
    parser.add_argument("--out", default="BENCH_soundness.json")
    parser.add_argument("--min-tightening", type=float, default=0.0,
                        help="fail unless every kernel's bound "
                             "tightens by at least this factor from the "
                             "smallest to the largest budget")
    args = parser.parse_args()
    try:
        baseline = run_baseline(kernels=args.kernels,
                                budgets=tuple(args.budgets),
                                seed_proposals=args.seed_proposals)
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        sys.exit(1)
    with open(args.out, "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    failed = []
    for row in baseline["results"]:
        print(f"{row['kernel']:>7}: validator {row['validator_max_err']:,.0f} "
              f"ULPs <= certified " +
              " -> ".join(f"{p['bound_ulps']:.3e}@{p['budget']}"
                          for p in row["series"]) +
              f" ({row['tightening_64_to_max']:.1f}x tightening, "
              f"cert {row['certificate']['size_bytes']:,}B "
              f"{row['certificate']['leaves']} leaves)")
        if row["tightening_64_to_max"] < args.min_tightening:
            failed.append(row["kernel"])
    print(f"wrote {args.out}")
    if failed:
        print(f"FAIL: {', '.join(failed)} below "
              f"{args.min_tightening:.1f}x tightening floor",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
