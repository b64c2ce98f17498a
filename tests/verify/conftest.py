"""Reference oracles shared by the verification tests.

:func:`without_prefix_sharing` swaps one method of a verifier's
transfer for the length of a test (through ``monkeypatch``), so the
same search loop can be run with both split children analyzed from
scratch and compared result for result.  :func:`exhaustive_oracle` is
the per-case exhaustive check the column pipeline replaced.
"""

from __future__ import annotations

import itertools
import math

from repro.x86.locations import parse_loc
from repro.x86.testcase import encode_for

from repro.core.cost import location_ulp_distance
from repro.core.runner import Runner
from repro.verify.exhaustive import ExhaustiveResult


def exhaustive_oracle(target, rewrite, live_outs, ranges,
                      base_testcase_factory, bits_per_input=8,
                      max_ulps=0.0) -> ExhaustiveResult:
    """``exhaustive_check`` one test case at a time on the emulator: each
    grid point encoded in Python, the cross product walked with
    ``itertools.product`` and every case's error summed in Python."""
    runner = Runner(live_outs, backend="emulator")
    prepared_t = runner.prepare(target)
    prepared_r = runner.prepare(rewrite)
    locs = [parse_loc(k) if isinstance(k, str) else k for k in ranges]
    grids = []
    for loc, (lo, hi) in zip(locs, ranges.values()):
        count = 1 << bits_per_input
        if count == 1:
            grids.append([encode_for(loc, lo)])
            continue
        step = (hi - lo) / (count - 1)
        grids.append([encode_for(loc, lo + i * step) for i in range(count)])

    worst = 0.0
    counterexample = None
    checked = 0
    base = base_testcase_factory()
    for assignment in itertools.product(*grids):
        test = base
        for loc, bits in zip(locs, assignment):
            test = test.replace(loc, bits)
        checked += 1
        t_val, t_sig = runner.run_values(prepared_t, test)
        r_val, r_sig = runner.run_values(prepared_r, test)
        if t_sig is not None or r_sig is not None:
            if t_sig != r_sig:
                worst = math.inf
                if counterexample is None:
                    counterexample = test
            continue
        err = 0.0
        for loc, t_bits, r_bits in zip(runner.live_outs, t_val, r_val):
            err += location_ulp_distance(loc, r_bits, t_bits)
        worst = max(worst, err)
        if err > max_ulps and counterexample is None:
            counterexample = test
    return ExhaustiveResult(max_ulps=worst, cases_checked=checked,
                            counterexample=counterexample)


def without_prefix_sharing(verifier, monkeypatch) -> None:
    """Make ``verifier``'s search analyze both split children from
    scratch."""
    transfer = verifier.transfer
    shared = transfer.analyze_split
    monkeypatch.setattr(transfer, "analyze_split",
                        lambda box, dim: shared(box, dim, sharing=False))
