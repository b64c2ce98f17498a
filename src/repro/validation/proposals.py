"""Test-case proposal distribution for validation (Equation 16).

Successor test cases perturb each ranged live-in by a draw from a
normal distribution; components that would leave the user-specified
``[l_min, l_max]`` range keep their old value.  Keeping pointer-valued
live-ins fixed guarantees proposals never leave the memory sandbox.
Ergodicity and symmetry follow from the normal distribution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.fp.ieee754 import bits_to_double, bits_to_single
from repro.x86.locations import Loc, MemLoc, parse_loc
from repro.x86.testcase import TestCase, encode_for

LocLike = Union[str, Loc, MemLoc]


@dataclass(frozen=True)
class InputRange:
    """Valid range of one floating-point live-in."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def _walk_value(loc, bits: int, lo: float, hi: float):
    """The number a live-in's bits stand for on the walk over ``[lo, hi]``.

    An FP location reads as its float.  An integer pattern stands for
    two numbers, its unsigned value and its signed two's complement
    value (``encode_for`` writes a negative integer as the latter, while
    ``decode_from`` reads the unsigned pattern back); the walk reads the
    one nearer the range.  Every value the walk encodes lies in the
    range, so on a range that fits the location's width it reads back
    as drawn (truncated to an integer): below zero as above 2^31.
    """
    if loc.ftype == "f64":
        return bits_to_double(bits)
    if loc.ftype == "f32":
        return bits_to_single(bits)
    mask = (1 << loc.width) - 1
    bits &= mask
    if bits > hi:
        signed = bits - mask - 1
        if lo - signed < bits - hi:
            return signed
    return bits


class TestCaseProposer:
    """Gaussian random-walk proposals over the ranged live-ins."""

    # Not a test class, despite the Test* name pytest keys on.
    __test__ = False

    def __init__(self, ranges: Dict[LocLike, Tuple[float, float]],
                 sigma_fraction: float = 0.05,
                 mu: float = 0.0):
        self.ranges: Dict[Loc, InputRange] = {}
        for key, (lo, hi) in ranges.items():
            loc = key if isinstance(key, (Loc, MemLoc)) else parse_loc(key)
            if lo >= hi:
                raise ValueError(f"empty range for {loc}: [{lo}, {hi}]")
            self.ranges[loc] = InputRange(lo, hi)
        self.sigma_fraction = sigma_fraction
        self.mu = mu
        # One (loc, lo, hi, sigma) per ranged live-in, in range order:
        # a draw reads no dict keyed by location (a Loc hashes in Python).
        self._walk = tuple((loc, spec.lo, spec.hi, spec.width * sigma_fraction)
                           for loc, spec in self.ranges.items())
        # One-entry cache of the walk values of ``current``, aligned with
        # ``_walk``: during a rejection streak every draw comes from the
        # same ``current``.
        self._decoded: Tuple[Optional[TestCase], list] = (None, [])

    def _values_of(self, current: TestCase) -> list:
        cached, values = self._decoded
        if cached is not current:
            inputs = current.inputs
            values = [_walk_value(loc, inputs[loc], lo, hi)
                      for loc, lo, hi, _ in self._walk]
            self._decoded = (current, values)
        return values

    def initial(self, rng: random.Random, base: TestCase) -> TestCase:
        """A starting point: uniform draw for each ranged live-in."""
        return self.propose_uniform(rng, base)

    def propose(self, rng: random.Random, current: TestCase) -> TestCase:
        """Equation 16: perturb every ranged live-in, clamping by reuse.

        Every live-in draws its Gaussian step, in range order, whether
        or not it moves.  A draw that moves no component returns
        ``current`` itself; otherwise one inputs dict is built.
        """
        gauss = rng.gauss
        mu = self.mu
        inputs = None
        for (loc, lo, hi, sigma), value in zip(self._walk,
                                               self._values_of(current)):
            candidate = value + gauss(mu, sigma)
            if lo <= candidate <= hi:
                if inputs is None:
                    inputs = dict(current.inputs)
                inputs[loc] = encode_for(loc, candidate)
        if inputs is None:
            return current
        return TestCase._from_resolved(inputs, current.segments)

    def propose_uniform(self, rng: random.Random,
                        current: TestCase) -> TestCase:
        """Independent uniform redraw (used by the random-search variant)."""
        uniform = rng.uniform
        inputs = dict(current.inputs)
        for loc, lo, hi, _ in self._walk:
            inputs[loc] = encode_for(loc, uniform(lo, hi))
        return TestCase._from_resolved(inputs, current.segments)
