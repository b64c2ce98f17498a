"""Bounded-exhaustive bit-level equivalence checking.

The stand-in for the bit-blasting decision procedures of Section 4: an
exact equivalence check obtained by enumerating every input assignment of
a quantized subdomain and executing both programs bit-for-bit.  Like the
decision procedures it replaces, it is sound and complete *on its domain*
but scales exponentially — with input bit-width here, where an SMT
bit-blaster scales with formula size — and is therefore usable only for
tiny kernels (the paper puts the practical limit at roughly five
instructions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.x86.locations import parse_loc
from repro.x86.program import Program
from repro.x86.testcase import TestCase

from repro.core.cost import location_ulp_distance_columns
from repro.core.runner import Location, Runner


@dataclass
class ExhaustiveResult:
    """Result of a bounded-exhaustive check."""

    max_ulps: float
    cases_checked: int
    counterexample: Optional[TestCase]

    @property
    def bitwise_equal(self) -> bool:
        return self.max_ulps == 0.0


def _grid_column(loc: Location, lo: float, hi: float,
                 bits: int) -> np.ndarray:
    """The ``2**bits`` points of an even grid over ``[lo, hi]`` (one
    point, ``lo``, for ``bits=0``), as a uint64 column of ``loc``'s bit
    patterns: :func:`~repro.x86.testcase.encode_for` lane by lane."""
    count = 1 << bits
    if count == 1:
        points = np.array([lo], dtype=np.float64)
    else:
        step = (hi - lo) / (count - 1)
        points = float(lo) + np.arange(count, dtype=np.float64) * step
    if loc.ftype == "f64":
        return points.view(np.uint64)
    if loc.ftype == "f32":
        return points.astype(np.float32).view(np.uint32).astype(np.uint64)
    # int() truncates toward zero and the mask reduces modulo 2**64:
    # fmod does that reduction exactly, and shifting the remainder into
    # int64 range keeps the wrapping cast exact.
    whole = np.fmod(np.trunc(points), 2.0 ** 64)
    whole[whole >= 2.0 ** 63] -= 2.0 ** 64
    whole[whole < -2.0 ** 63] += 2.0 ** 64
    return whole.astype(np.int64).view(np.uint64) \
        & np.uint64((1 << loc.width) - 1)


def _coordinates(index, inputs: int, bits: int) -> list:
    """Per-input point indices of grid indices (ints or an int array),
    in ``itertools.product`` order: the first input varies slowest."""
    mask = (1 << bits) - 1
    return [(index >> (bits * (inputs - 1 - k))) & mask
            for k in range(inputs)]


# Lanes per run_columns call: large enough to amortize per-chunk
# dispatch (one vectorized pass per program on lane-array backends),
# small enough to keep the lane arrays and per-lane states bounded.
_BATCH = 4096


def exhaustive_check(
    target: Program,
    rewrite: Program,
    live_outs: Sequence[Union[str, Location]],
    ranges: Dict[str, Tuple[float, float]],
    base_testcase_factory: Callable[[], TestCase],
    bits_per_input: int = 8,
    max_ulps: float = 0.0,
    backend: str = "vector",
) -> ExhaustiveResult:
    """Check equivalence over the full cross product of quantized inputs.

    ``bits_per_input`` controls the grid resolution per live-in; the total
    number of executions is ``2**(bits_per_input * len(ranges))`` — the
    exponential blow-up that makes this a small-kernel-only technique.
    Returns the max ULP error over the grid and the first counterexample
    exceeding ``max_ulps`` (the check still completes the sweep so the
    reported max is over the whole grid).  A lane where the two programs
    signal differently is infinitely wrong; one where both signal alike
    is skipped.

    ``backend`` names any registered execution backend
    (:func:`repro.core.backends.known_backends`).  Each input's grid is
    a uint64 bit column; the cross product streams through
    :meth:`~repro.core.runner.Runner.run_columns` in chunks, and the
    signals and ULP errors reduce in numpy.  Only the counterexample
    becomes a test case.  The grid order — and therefore the
    first-counterexample identity — does not depend on the backend or
    the chunk size.
    """
    runner = Runner(live_outs, backend=backend)
    prepared_t = runner.prepare(target)
    prepared_r = runner.prepare(rewrite)

    locs = [parse_loc(k) if isinstance(k, str) else k for k in ranges]
    grids = [_grid_column(loc, lo, hi, bits_per_input)
             for loc, (lo, hi) in zip(locs, ranges.values())]
    total = 1 << (bits_per_input * len(grids))

    worst = 0.0
    first: Optional[int] = None
    base = base_testcase_factory()
    for start in range(0, total, _BATCH):
        index = np.arange(start, min(start + _BATCH, total), dtype=np.int64)
        lanes = len(index)
        inputs = {loc: grid[point] for loc, grid, point in zip(
            locs, grids, _coordinates(index, len(grids), bits_per_input))}
        t_sigs, t_cols = runner.run_columns(prepared_t, base, inputs)
        r_sigs, r_cols = runner.run_columns(prepared_r, base, inputs)
        err = np.zeros(lanes)
        for loc, t_bits, r_bits in zip(runner.live_outs, t_cols, r_cols):
            err += location_ulp_distance_columns(loc, r_bits, t_bits)
        bad = err > max_ulps
        if t_sigs.count(None) < lanes or r_sigs.count(None) < lanes:
            # A signalled lane's live-outs are undefined: replace its
            # error with inf on a mismatch and 0 when both signal alike.
            t_obj = np.array(t_sigs, dtype=object)
            r_obj = np.array(r_sigs, dtype=object)
            mismatch = t_obj != r_obj
            clean = np.equal(t_obj, None) & np.equal(r_obj, None)
            err = np.where(mismatch, np.inf, np.where(clean, err, 0.0))
            bad = mismatch | (clean & bad)
        worst = max(worst, float(err.max()))
        if first is None and bad.any():
            first = start + int(bad.argmax())

    counterexample: Optional[TestCase] = None
    if first is not None:
        counterexample = base
        for loc, grid, point in zip(
                locs, grids, _coordinates(first, len(grids),
                                          bits_per_input)):
            counterexample = counterexample.replace(loc, int(grid[point]))
    return ExhaustiveResult(max_ulps=worst, cases_checked=total,
                            counterexample=counterexample)
