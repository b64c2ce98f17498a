"""Test-case proposal distribution for validation (Equation 16).

Successor test cases perturb each floating-point live-in by a draw from a
normal distribution; components that would leave the user-specified
``[l_min, l_max]`` range keep their old value.  Keeping pointer-valued
live-ins fixed guarantees proposals never leave the memory sandbox.
Ergodicity and symmetry follow from the normal distribution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.x86.locations import Loc, MemLoc, parse_loc
from repro.x86.testcase import TestCase, decode_from, encode_for

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


class TestCaseProposer:
    """Gaussian random-walk proposals over the floating-point live-ins."""

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
        self._sigmas = {loc: spec.width * sigma_fraction
                        for loc, spec in self.ranges.items()}
        # One-entry decode cache: during a rejection streak every draw
        # comes from the same ``current``, and decoding its live-ins once
        # per draw was a measurable share of the chain's runtime.
        self._decoded: Tuple[Optional[TestCase], Dict] = (None, {})

    def _values_of(self, current: TestCase) -> Dict:
        cached, values = self._decoded
        if cached is not current:
            values = {loc: decode_from(loc, current.inputs[loc])
                      for loc in self.ranges}
            self._decoded = (current, values)
        return values

    def initial(self, rng: random.Random, base: TestCase) -> TestCase:
        """A starting point: uniform draw for each ranged live-in."""
        tc = base
        for loc, rng_spec in self.ranges.items():
            value = rng.uniform(rng_spec.lo, rng_spec.hi)
            tc = tc.replace(loc, encode_for(loc, value))
        return tc

    def propose(self, rng: random.Random, current: TestCase) -> TestCase:
        """Equation 16: perturb every ranged live-in, clamping by reuse."""
        tc = current
        values = self._values_of(current)
        for loc, rng_spec in self.ranges.items():
            candidate = values[loc] + rng.gauss(self.mu, self._sigmas[loc])
            if rng_spec.contains(candidate):
                tc = tc.replace(loc, encode_for(loc, candidate))
        return tc

    def propose_uniform(self, rng: random.Random,
                        current: TestCase) -> TestCase:
        """Independent uniform redraw (used by the random-search variant)."""
        tc = current
        for loc, rng_spec in self.ranges.items():
            value = rng.uniform(rng_spec.lo, rng_spec.hi)
            tc = tc.replace(loc, encode_for(loc, value))
        return tc
