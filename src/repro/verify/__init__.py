"""Static verification stand-ins (Section 4 comparisons).

Three techniques with exactly the paper's trade-offs:

* :func:`check_equivalent_uf` — sound bit-wise equivalence with FP ops
  uninterpreted; succeeds on data-movement rewrites (Figure 6), reports
  "unknown" otherwise.
* :func:`interval_ulp_bound` — sound but coarse interval analysis over
  bit-space boxes (a thin wrapper over the branch-and-bound verifier);
  over-approximates heavily but now covers libimf's bit-level code via
  an integer-interval GP domain.
* :func:`exhaustive_check` — exact on a quantized subdomain, exponential
  in input width (the decision-procedure analogue).

The full sound pipeline — budgeted refinement, counterexample seeding,
and checkable certificates — lives in
:mod:`repro.verify.bnb`, :mod:`repro.verify.partition`,
:mod:`repro.verify.certificate`, and :mod:`repro.verify.checker`
(DESIGN.md §10).  The relational product-program domain, which bounds
the rewrite-vs-target difference directly instead of subtracting
independent hulls, lives in :mod:`repro.verify.relational`
(DESIGN.md §16).
"""

from repro.verify.bnb import (
    BnBConfig,
    BnBResult,
    BnBVerifier,
    seeds_from_validation,
)
from repro.verify.certificate import Certificate
from repro.verify.checker import CheckReport, check
from repro.verify.relational import (
    RelationalTransfer,
    smt_available,
    smt_cross_check,
    transfer_class,
)
from repro.verify.exhaustive import ExhaustiveResult, exhaustive_check
from repro.verify.interval import (
    IntervalBound,
    IntervalD,
    IntervalUnsupported,
    interval_ulp_bound,
)
from repro.verify.symbolic import (
    Const,
    InputNode,
    Node,
    OpNode,
    SymbolicUnsupported,
    concat,
    extract,
    op,
    symbolic_execute,
)
from repro.verify.uf import UfResult, VerifyOutcome, check_equivalent_uf

__all__ = [
    "BnBConfig",
    "BnBResult",
    "BnBVerifier",
    "Certificate",
    "CheckReport",
    "check",
    "seeds_from_validation",
    "ExhaustiveResult",
    "exhaustive_check",
    "IntervalBound",
    "IntervalD",
    "IntervalUnsupported",
    "interval_ulp_bound",
    "Const",
    "InputNode",
    "Node",
    "OpNode",
    "SymbolicUnsupported",
    "concat",
    "extract",
    "op",
    "symbolic_execute",
    "RelationalTransfer",
    "smt_available",
    "smt_cross_check",
    "transfer_class",
    "UfResult",
    "VerifyOutcome",
    "check_equivalent_uf",
]
