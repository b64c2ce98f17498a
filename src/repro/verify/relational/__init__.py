"""Relational (product-program) verification domain.

Bounds the rewrite-vs-target ULP difference directly by running both
programs in lockstep over one paired abstract state, instead of
subtracting independently computed output hulls.
"""

from repro.verify.relational.diffbound import (
    PairBox,
    PairPlan,
    window_ulp_bound,
)
from repro.verify.relational.domain import (
    RelationalTransfer,
    shared_prefix_len,
    transfer_class,
)
from repro.verify.relational.smt import (
    SmtOutcome,
    cross_check_certificate,
    smt_available,
    smt_cross_check,
)

__all__ = [
    "PairBox",
    "PairPlan",
    "RelationalTransfer",
    "SmtOutcome",
    "cross_check_certificate",
    "shared_prefix_len",
    "smt_available",
    "smt_cross_check",
    "transfer_class",
    "window_ulp_bound",
]
