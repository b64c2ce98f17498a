"""E12: the decision-procedure scaling wall (Section 4).

The paper observes that bit-blasting decision procedures handle code
"on the order of five lines long" — two orders of magnitude short of the
benchmarks.  Our exhaustive bit-level checker has the same character:
exact on its domain, exponential in input width.  This driver measures
check time against input resolution and against kernel length, printing
the blow-up curve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

from repro.x86.assembler import assemble
from repro.x86.testcase import TestCase

from repro.harness.report import format_table
from repro.kernels.libimf import sin_kernel
from repro.kernels.polynomial import horner_asm
from repro.verify import exhaustive_check


@dataclass
class ScalingPoint:
    bits: int
    instructions: int
    cases: int
    seconds: float


def _poly_kernel(terms: int):
    """A Horner chain of the given length (3 instructions per term)."""
    coeffs = [1.0 / (k + 1) for k in range(terms)]
    asm = horner_asm(coeffs, "xmm0", "xmm2", "xmm3") + "movsd xmm2, xmm0\n"
    return assemble(asm)


def run_bits_sweep(bits_list=(4, 6, 8, 10, 12)) -> List[ScalingPoint]:
    """Fixed kernel, growing input resolution: the exponential axis."""
    spec = sin_kernel()
    points = []
    for bits in bits_list:
        start = time.perf_counter()
        result = exhaustive_check(
            spec.program, spec.program, spec.live_outs,
            dict(spec.ranges), lambda: TestCase({}),
            bits_per_input=bits,
        )
        points.append(ScalingPoint(
            bits=bits, instructions=spec.loc,
            cases=result.cases_checked,
            seconds=time.perf_counter() - start,
        ))
    return points


def run_length_sweep(terms_list=(2, 4, 8, 16, 32),
                     bits: int = 8) -> List[ScalingPoint]:
    """Fixed resolution, growing kernel length: the linear axis."""
    points = []
    for terms in terms_list:
        program = _poly_kernel(terms)
        start = time.perf_counter()
        result = exhaustive_check(
            program, program, ["xmm0"], {"xmm0": (-1.0, 1.0)},
            lambda: TestCase({}), bits_per_input=bits,
        )
        points.append(ScalingPoint(
            bits=bits, instructions=program.loc,
            cases=result.cases_checked,
            seconds=time.perf_counter() - start,
        ))
    return points


def report(points: List[ScalingPoint], title: str) -> str:
    rows = [(p.bits, p.instructions, p.cases, f"{p.seconds:.3f}s")
            for p in points]
    return format_table(("input bits", "instructions", "cases", "time"),
                        rows, title=title)


@dataclass
class BnBPoint:
    budget: int
    bound: float
    boxes: int
    pruned: int
    seconds: float
    termination: str


def run_bnb_sweep(kernel: str = "log", degree: int = 12,
                  budgets=(64, 256, 1024, 4096)) -> List[BnBPoint]:
    """Branch-and-bound convergence: certified bound vs box budget.

    The sound counterpart to the exhaustive wall above — refinement cost
    grows linearly with the budget while the bound tightens.
    """
    from repro.kernels.libimf import LIBIMF_KERNELS
    from repro.verify.bnb import BnBConfig, BnBVerifier

    factory = LIBIMF_KERNELS[kernel]
    spec = factory()
    verifier = BnBVerifier(spec.program, factory(degree).program,
                           spec.live_outs, dict(spec.ranges))
    points = []
    for budget in budgets:
        result = verifier.run(BnBConfig(max_boxes=budget))
        points.append(BnBPoint(
            budget=budget, bound=result.bound_ulps,
            boxes=result.boxes_explored, pruned=result.boxes_pruned,
            seconds=result.wall_time, termination=result.termination,
        ))
    return points


def report_bnb(points: List[BnBPoint], title: str) -> str:
    rows = [(p.budget, f"{p.bound:.3e}", p.boxes, f"{p.seconds:.3f}s",
             p.termination) for p in points]
    return format_table(
        ("budget", "certified bound", "boxes", "time", "stop"),
        rows, title=title)


def main() -> None:
    print(report(run_bits_sweep(),
                 "E12: exhaustive check vs input resolution (exponential)"))
    print()
    print(report(run_length_sweep(),
                 "E12: exhaustive check vs kernel length (linear)"))
    print()
    print(report_bnb(run_bnb_sweep(),
                     "Branch-and-bound: certified bound vs box budget "
                     "(log kernel vs degree-12 rewrite)"))


if __name__ == "__main__":
    main()
