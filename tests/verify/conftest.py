"""Search-level oracles shared by the branch-and-bound tests.

Each helper swaps one method of a verifier's transfer for the length of
a test (through ``monkeypatch``), so the same search loop can be run
against a reference transfer and compared result for result.
"""

from __future__ import annotations

import math

from repro.verify.interval import IntervalUnsupported


def interpretive_search(verifier, monkeypatch) -> None:
    """Drive ``verifier``'s search through the interpretive oracle
    instead of the compiled transfer, one from-scratch box at a time —
    the transfer the removed reference engine ran."""
    transfer = verifier.transfer

    def unit(box):
        try:
            bound, per_loc, stats = transfer.analyze_interpretive(box)
        except IntervalUnsupported as exc:
            return (math.inf, None, (1, 0, 0), str(exc)), None
        return (bound, per_loc, (stats.boxes, stats.concrete_bit_ops,
                                 stats.widened_bit_ops), None), None

    def split(box, dim):
        left, right = box.split(dim)
        return unit(left)[0], unit(right)[0], None

    monkeypatch.setattr(transfer, "analyze_unit", unit)
    monkeypatch.setattr(transfer, "analyze_split", split)


def without_prefix_sharing(verifier, monkeypatch) -> None:
    """Make ``verifier``'s search analyze both split children from
    scratch."""
    transfer = verifier.transfer
    shared = transfer.analyze_split
    monkeypatch.setattr(transfer, "analyze_split",
                        lambda box, dim: shared(box, dim, sharing=False))
