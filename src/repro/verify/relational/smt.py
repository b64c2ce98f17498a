"""Optional SMT cross-check tier for relational certificates (z3).

Given a certified ULP bound, this tier asks an independent decision
procedure the *opposite* question: is there any input in the verified
ranges on which the summed live-out ULP distance exceeds the bound?

* **Bit-precise mode** — both programs' pure-FP expression DAGs are
  encoded over ``Float64`` with round-to-nearest-even, live-outs are
  mapped to ordered bit indices (the Figure 3 monotone reinterpretation,
  identical to :func:`repro.fp.ulp.ordered_from_bits`) and the distance
  claim is checked exactly.  ``unsat`` means the certificate's bound is
  confirmed for *all* inputs — not just over the BnB partition.
* **Real-relaxation mode** — fallback when bit-precise solving times
  out (or the DAG uses operators the FP encoding refuses): each rounded
  operation becomes ``exact * (1 + e)`` with ``|e| <= 2^-53`` plus an
  absolute underflow slack, and the check proves the *sufficient*
  value-space condition ``|t - r| <= bound * min_spacing(hull)``.  The
  relaxation can only confirm or say unknown — a ``sat`` there is not a
  counterexample, because real arithmetic over-approximates rounding.

z3 is an optional dependency: :func:`smt_available` gates every entry
point and nothing in this module imports z3 at module load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.verify.relational.diffbound import PairBox, PairPlan
from repro.verify.relational.domain import (
    RelationalTransfer,
    _input_hulls,
)
from repro.verify.symbolic import Const, InputNode, Node, OpNode

_SIGNED64 = 1 << 63
_EPS64 = 2.0 ** -53          # round-to-nearest relative error, doubles
_ETA64 = 2.0 ** -1075        # absolute underflow slack (half a denormal)


def smt_available() -> bool:
    """True when the optional z3 solver is importable."""
    try:
        import z3  # noqa: F401
    except ImportError:
        return False
    return True


class SmtUnsupported(Exception):
    """The DAG uses operators outside the requested encoding."""


@dataclass
class SmtOutcome:
    """Result of one SMT cross-check.

    ``status`` is ``verified`` (the claimed bound holds for all inputs),
    ``refuted`` (the solver produced a candidate violation — the
    certificate and the solver disagree and one of them is wrong), or
    ``unknown`` (timeout / unsupported fragment; the certificate stands
    on the BnB proof alone).
    """

    status: str                      # 'verified' | 'refuted' | 'unknown'
    mode: str                        # 'fp' | 'real' | 'none'
    detail: str = ""
    counterexample: Dict[str, float] = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def to_dict(self) -> Dict:
        return {"status": self.status, "mode": self.mode,
                "detail": self.detail,
                "counterexample": dict(self.counterexample)}


# ---------------------------------------------------------------------------
# bit-precise FP encoding


def _encode_fp(node: Node, z3, cache: Dict, variables: Dict):
    key = node._key
    if key in cache:
        return cache[key]
    double = z3.Float64()
    rne = z3.RNE()
    if isinstance(node, Const):
        if node.width != 64:
            raise SmtUnsupported(f"constant width {node.width}")
        expr = z3.fpBVToFP(z3.BitVecVal(node.value, 64), double)
    elif isinstance(node, InputNode):
        if node.name not in variables:
            raise SmtUnsupported(f"unconstrained input {node.name}")
        expr = variables[node.name]
    elif isinstance(node, OpNode):
        name = node.op
        if name == "fma_add" and isinstance(node.args[0], OpNode) \
                and node.args[0].op == "fma_mul":
            mul = node.args[0]
            expr = z3.fpFMA(rne,
                            _encode_fp(mul.args[0], z3, cache, variables),
                            _encode_fp(mul.args[1], z3, cache, variables),
                            _encode_fp(node.args[1], z3, cache, variables))
        elif name in ("addsd", "subsd", "mulsd", "divsd"):
            fn = {"addsd": z3.fpAdd, "subsd": z3.fpSub,
                  "mulsd": z3.fpMul, "divsd": z3.fpDiv}[name]
            expr = fn(rne,
                      _encode_fp(node.args[0], z3, cache, variables),
                      _encode_fp(node.args[1], z3, cache, variables))
        elif name == "sqrtsd":
            expr = z3.fpSqrt(rne,
                             _encode_fp(node.args[0], z3, cache, variables))
        elif name in ("minsd", "maxsd"):
            # x86 scalar min/max return the second source on ties and
            # NaNs; spell that out instead of using IEEE minNum.
            a = _encode_fp(node.args[0], z3, cache, variables)
            b = _encode_fp(node.args[1], z3, cache, variables)
            comparison = z3.fpLT(a, b) if name == "minsd" else z3.fpGT(a, b)
            expr = z3.If(comparison, a, b)
        else:
            raise SmtUnsupported(f"operator {name} outside the FP encoding")
    else:
        raise SmtUnsupported(f"node kind {type(node).__name__}")
    cache[key] = expr
    return expr


def _ordered_index(expr, z3):
    """Ordered bit index of a Float64 term, as a signed 66-bit vector
    (mirrors :func:`repro.fp.ulp.ordered_from_bits`)."""
    bv = z3.fpToIEEEBV(expr)
    signed = z3.SignExt(2, bv)
    int_min = z3.BitVecVal(-_SIGNED64, 66)
    return z3.If(signed < 0, int_min - signed, signed)


# ---------------------------------------------------------------------------
# real-valued relaxation


class _RealEncoder:
    """DAG -> real arithmetic with explicit rounding slack terms."""

    def __init__(self, z3, solver, variables: Dict):
        self.z3 = z3
        self.solver = solver
        self.variables = variables
        self.cache: Dict = {}
        self._fresh = 0

    def _slack(self, exact):
        z3 = self.z3
        self._fresh += 1
        e = z3.Real(f"__err{self._fresh}")
        d = z3.Real(f"__eta{self._fresh}")
        self.solver.add(e >= -_EPS64, e <= _EPS64,
                        d >= -_ETA64, d <= _ETA64)
        return exact * (1 + e) + d

    def encode(self, node: Node):
        key = node._key
        if key in self.cache:
            return self.cache[key]
        z3 = self.z3
        if isinstance(node, Const):
            if node.width != 64:
                raise SmtUnsupported(f"constant width {node.width}")
            from repro.x86.scalar import u2d

            value = u2d(node.value)
            if math.isnan(value) or math.isinf(value):
                raise SmtUnsupported("non-finite constant")
            expr = z3.RealVal(value)
        elif isinstance(node, InputNode):
            if node.name not in self.variables:
                raise SmtUnsupported(f"unconstrained input {node.name}")
            expr = self.variables[node.name]
        elif isinstance(node, OpNode):
            name = node.op
            if name == "fma_add" and isinstance(node.args[0], OpNode) \
                    and node.args[0].op == "fma_mul":
                mul = node.args[0]
                expr = self._slack(
                    self.encode(mul.args[0]) * self.encode(mul.args[1])
                    + self.encode(node.args[1]))
            elif name in ("addsd", "subsd", "mulsd"):
                a = self.encode(node.args[0])
                b = self.encode(node.args[1])
                exact = {"addsd": a + b, "subsd": a - b,
                         "mulsd": a * b}[name]
                expr = self._slack(exact)
            elif name in ("minsd", "maxsd"):
                a = self.encode(node.args[0])
                b = self.encode(node.args[1])
                comparison = (a < b) if name == "minsd" else (a > b)
                expr = z3.If(comparison, a, b)
            elif name == "sqrtsd":
                a = self.encode(node.args[0])
                self._fresh += 1
                root = z3.Real(f"__sqrt{self._fresh}")
                self.solver.add(root >= 0, root * root == a)
                expr = self._slack(root)
            else:
                # divsd is deliberately excluded: a zero divisor would
                # need an unsound side condition.
                raise SmtUnsupported(
                    f"operator {name} outside the real relaxation")
        else:
            raise SmtUnsupported(f"node kind {type(node).__name__}")
        self.cache[key] = expr
        return expr


# ---------------------------------------------------------------------------
# entry points


def _pairs_and_inputs(transfer: RelationalTransfer):
    if not transfer.pairs:
        raise SmtUnsupported(
            transfer.relational_error or "no paired expressions")
    root_inputs = transfer._inputs_of(
        transfer.root.value_box(transfer.dims))
    f64_inputs, f32_inputs = _input_hulls(root_inputs)
    if f32_inputs:
        raise SmtUnsupported("f32 inputs outside the SMT tier")
    pairs = []
    for loc in transfer.locations:
        pair = transfer.pairs.get(str(loc))
        if pair is None or loc.ftype != "f64":
            raise SmtUnsupported(f"live-out {loc} has no f64 pairing")
        pairs.append(pair)
    return pairs, f64_inputs


def _check_fp(pairs, f64_inputs, bound: int, timeout_ms: int) -> SmtOutcome:
    import z3

    solver = z3.Solver()
    solver.set("timeout", int(timeout_ms))
    double = z3.Float64()
    variables = {}
    for name, hull in f64_inputs.items():
        var = z3.FP(name.replace("+", "_"), double)
        variables[name] = var
        # fpGEQ/fpLEQ are false on NaN, so the range also excludes it.
        solver.add(z3.fpGEQ(var, z3.FPVal(hull.lo, double)),
                   z3.fpLEQ(var, z3.FPVal(hull.hi, double)))
    cache: Dict = {}
    total = z3.BitVecVal(0, 70)
    for t_node, r_node in pairs:
        t_idx = _ordered_index(_encode_fp(t_node, z3, cache, variables), z3)
        r_idx = _ordered_index(_encode_fp(r_node, z3, cache, variables), z3)
        delta = z3.SignExt(4, t_idx) - z3.SignExt(4, r_idx)
        total = total + z3.If(delta < 0, -delta, delta)
    solver.add(z3.UGT(total, z3.BitVecVal(bound, 70)))
    outcome = solver.check()
    if outcome == z3.unsat:
        return SmtOutcome("verified", "fp",
                          detail=f"no input exceeds {bound} ULPs")
    if outcome == z3.sat:
        model = solver.model()
        cex = {}
        for name, var in variables.items():
            value = model.eval(var, model_completion=True)
            try:
                cex[name] = float(eval(str(value), {"__builtins__": {}}))
            except Exception:
                cex[name] = float("nan")
        return SmtOutcome("refuted", "fp",
                          detail="solver found a candidate violation",
                          counterexample=cex)
    return SmtOutcome("unknown", "fp", detail=str(solver.reason_unknown()))


def _value_tolerance(pairs, f64_inputs, bound: float) -> float:
    """``bound`` ULPs translated to a sufficient value-space tolerance:
    bound times the minimum float spacing over the joint output hull."""
    box = PairBox(PairPlan(pairs), dict(f64_inputs), {})
    spacing = math.inf
    for root in range(len(pairs)):
        th, rh = box.hulls(root)
        if th is None or rh is None:
            raise SmtUnsupported("output hull unavailable for relaxation")
        lo = min(th.lo, rh.lo)
        hi = max(th.hi, rh.hi)
        if lo <= 0.0 <= hi:
            here = math.ulp(0.0)
        else:
            here = math.ulp(min(abs(lo), abs(hi)))
        spacing = min(spacing, here)
    return bound * spacing


def _check_real(pairs, f64_inputs, bound: float,
                timeout_ms: int) -> SmtOutcome:
    import z3

    tolerance = _value_tolerance(pairs, f64_inputs, bound)
    if tolerance == 0.0 or not math.isfinite(tolerance):
        return SmtOutcome("unknown", "real",
                          detail=f"vacuous value tolerance {tolerance}")
    solver = z3.Solver()
    solver.set("timeout", int(timeout_ms))
    variables = {}
    for name, hull in f64_inputs.items():
        var = z3.Real(name.replace("+", "_"))
        variables[name] = var
        solver.add(var >= z3.RealVal(hull.lo), var <= z3.RealVal(hull.hi))
    encoder = _RealEncoder(z3, solver, variables)
    claims = []
    for t_node, r_node in pairs:
        delta = encoder.encode(t_node) - encoder.encode(r_node)
        claims.append(z3.Or(delta > z3.RealVal(tolerance),
                            delta < -z3.RealVal(tolerance)))
    solver.add(z3.Or(*claims))
    outcome = solver.check()
    if outcome == z3.unsat:
        return SmtOutcome(
            "verified", "real",
            detail=f"|t - r| <= {tolerance:g} for all inputs, which "
                   f"implies <= {bound:g} ULPs")
    # sat in the relaxation is NOT a counterexample: the slack terms
    # over-approximate real rounding, so only unknown is honest.
    return SmtOutcome("unknown", "real",
                      detail="relaxation could not confirm the bound")


def smt_cross_check(transfer: RelationalTransfer, bound_ulps: float,
                    timeout_ms: int = 60000) -> SmtOutcome:
    """Cross-check a claimed total ULP bound against the SMT tier.

    Tries the bit-precise FP encoding first; falls back to the real
    relaxation when the solver gives up or the fragment is unsupported.
    """
    if not math.isfinite(bound_ulps):
        return SmtOutcome("verified", "none",
                          detail="an infinite bound is vacuously true")
    if not smt_available():
        return SmtOutcome("unknown", "none", detail="z3 is not installed")
    try:
        pairs, f64_inputs = _pairs_and_inputs(transfer)
    except SmtUnsupported as exc:
        return SmtOutcome("unknown", "none", detail=str(exc))
    try:
        outcome = _check_fp(pairs, f64_inputs, int(math.floor(bound_ulps)),
                            timeout_ms)
        if outcome.status != "unknown":
            return outcome
    except SmtUnsupported as exc:
        outcome = SmtOutcome("unknown", "fp", detail=str(exc))
    try:
        fallback = _check_real(pairs, f64_inputs, bound_ulps, timeout_ms)
    except SmtUnsupported as exc:
        fallback = SmtOutcome("unknown", "real", detail=str(exc))
    if fallback.status == "unknown" and outcome.detail:
        fallback.detail = f"fp: {outcome.detail}; real: {fallback.detail}"
    return fallback


def cross_check_certificate(cert, target, rewrite, memory=None,
                            concrete_gp=None,
                            timeout_ms: int = 60000) -> SmtOutcome:
    """Cross-check a relational certificate document's headline bound."""
    transfer = RelationalTransfer(target, rewrite, list(cert.live_outs),
                                  cert.value_ranges(), memory, concrete_gp)
    return smt_cross_check(transfer, cert.bound_ulps, timeout_ms=timeout_ms)
