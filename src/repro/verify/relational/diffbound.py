"""Paired-expression difference bounding for the relational domain.

The separate interval domain bounds target and rewrite independently and
subtracts hulls, which throws away every correlation between the two
programs.  This module evaluates both programs' expression DAGs
(:mod:`repro.verify.symbolic`, extended fragment) over one input box and
bounds the *difference* ``val(t) - val(r)`` of paired sub-expressions
directly:

* **Identity** — structurally equal nodes are bitwise-equal values for
  every input (each node is a pure function of its argument nodes, with
  flag dependencies reified as explicit arguments), so their difference
  is exactly ``[0, 0]``.  The plan interns nodes by structural key, so
  shared range reduction, shared prefixes and shared coefficients
  collapse for free, even across operators the hull evaluator cannot
  interpret.
* **Structural rules** — for paired ops of the same kind the real
  difference factors through the argument differences
  (``t1*t2 - r1*r2 = d1*t2 + r1*d2`` and so on); each rule adds one
  outward-rounded slack per rounded operation, bounded by the result
  hull's ULP spacing.
* **Hull fallback** — every pair is additionally met with the plain
  hull subtraction, so the relational difference is never *wider* than
  what the separate domain knows.

:class:`PairPlan` compiles the live-out pair DAGs once per transfer;
:class:`PairBox` evaluates a plan over one box.

The final :func:`window_ulp_bound` converts a value-difference interval
into a ULP distance: any two floats within ``m`` of each other inside a
hull ``H`` are separated by at most the number of representables in the
densest width-``m`` window of ``H`` (float spacing is non-decreasing in
magnitude, so the window sits at the hull's minimum magnitude).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.verify.interval import (
    IntervalD,
    IntervalUnsupported,
    IntInterval,
    _ARITH_D,
    _ARITH_F,
    _MAX_FINITE_BITS,
    _decide_cmov,
    _down,
    _down32,
    _int_and,
    _int_or,
    _require_signed64,
    _round_half_even,
    _rounded_int,
    _up,
    _up32,
)
from repro.verify.partition import index_of
from repro.verify.symbolic import Const, ExtractNode, InputNode, Node, OpNode
from repro.x86.scalar import d2u, sint64, u2d, u2f

_ZERO = IntervalD(0.0, 0.0)
# A per-box memo slot not evaluated yet (None is a result: "no
# information").
_PENDING = object()

# Scalar arithmetic whose hull is the interval operation of the same
# name; value is the _Arith method name.
_SD_ARITH = {"addsd": "add", "subsd": "sub", "mulsd": "mul",
             "divsd": "div", "minsd": "min", "maxsd": "max",
             "fma_mul": "mul",
             # Fused results are at least as accurate as the two-op
             # outward-rounded interval.
             "fma_add": "add"}
_SS_ARITH = {"addss": "add", "subss": "sub", "mulss": "mul",
             "divss": "div", "minss": "min", "maxss": "max"}
# Rule ops (see _RULES) that also try the crossed argument pairing:
# commutative ops arrive with sorted arguments, so the semantically
# matching pairing may be either one; every pairing's rule is
# independently sound, so both are met.
_CROSSED = ("addsd", "mulsd", "minsd", "maxsd", "fma_mul", "fma_add")


def _safe(fn, *args):
    """Interval arithmetic with failure-as-None (NaN corners, empty
    meets and domain errors all mean "no information", not "error")."""
    try:
        return fn(*args)
    except IntervalUnsupported:
        return None


def _meet(a: Optional[IntervalD], b: Optional[IntervalD]
          ) -> Optional[IntervalD]:
    if a is None:
        return b
    if b is None:
        return a
    return _safe(IntervalD, max(a.lo, b.lo), min(a.hi, b.hi)) or a


class PairBox:
    """One box's view of a :class:`PairPlan`.

    ``f64_inputs`` maps input-node names (``x0l``, ``arg+0``, ...) to
    the box's double intervals; ``f32_inputs`` maps ``(name, bit
    offset)`` to single intervals.  Hulls are evaluated on demand and
    differences per root, memoized in flat lists indexed by node and
    pair id that every root evaluated on the box shares, so cost is
    linear in DAG size per box.

    Every method returns ``None`` for "no information" — unsupported
    node kinds degrade the relational bound gracefully toward the
    separate-domain bound, they never raise.
    """

    __slots__ = ("f64_inputs", "f32_inputs", "_plan", "_h64", "_h32",
                 "_hint", "_diffs")

    def __init__(self, plan: "PairPlan", f64_inputs: Dict[str, IntervalD],
                 f32_inputs: Dict[Tuple[str, int], IntervalD]):
        self.f64_inputs = f64_inputs
        self.f32_inputs = f32_inputs
        self._plan = plan
        self._h64 = list(plan._h64)
        self._h32 = list(plan._h32)
        self._hint = list(plan._hint)
        self._diffs = list(plan._diffs)

    def f64(self, i: int) -> Optional[IntervalD]:
        """Sound double-value hull of node ``i``, or None."""
        hull = self._h64[i]
        if hull is _PENDING:
            hull = self._h64[i] = self._plan._f64[i](self)
        return hull

    def f32(self, i: int) -> Optional[IntervalD]:
        """Sound single-value hull of node ``i``, or None."""
        hull = self._h32[i]
        if hull is _PENDING:
            hull = self._h32[i] = self._plan._f32[i](self)
        return hull

    def sint(self, i: int) -> Optional[IntInterval]:
        """Sound signed integer-value hull of node ``i``, or None.

        Mirrors the interval domain's GP fragment: results that could
        leave the signed 64-bit range (where pattern arithmetic wraps)
        are reported as unknown.
        """
        hull = self._hint[i]
        if hull is _PENDING:
            hull = self._hint[i] = self._plan._sint[i](self)
        return hull

    def diff(self, root: int) -> Optional[IntervalD]:
        """Sound enclosure of ``val(t) - val(r)`` (doubles) for the
        plan's root pair ``root``, or None."""
        diffs = self._diffs
        for p, step in self._plan._orders[root]:
            if diffs[p] is _PENDING:
                diffs[p] = step(self, diffs)
        return diffs[self._plan._root_pairs[root]]

    def hulls(self, root: int
              ) -> Tuple[Optional[IntervalD], Optional[IntervalD]]:
        """Double-value hulls of the root pair's target and rewrite."""
        t, r = self._plan.root_nodes[root]
        return self.f64(t), self.f64(r)


class PairPlan:
    """Paired expression DAGs compiled once for per-box evaluation.

    ``pairs`` lists ``(target, rewrite)`` root nodes; root ``k`` of the
    plan is ``pairs[k]``.  Compilation interns every reachable node by
    its structural key, so structurally equal target and rewrite nodes
    share one id (and the identity rule becomes ``ti == ri``).  A node's
    ``_key`` is a nested tuple holding its whole subtree and tuples do
    not cache their hash, so keying per-box memos by it would cost
    O(subtree) per probe; here it is hashed once per node.

    Each node gets prebound double/single/signed-integer hull closures
    over operand ids (constant hulls are precomputed).  Each root gets
    its difference pairs in topological order: the structural rules
    evaluate every child difference before testing any for ``None``, so
    the pairs a root needs depend on the DAGs alone, never on the box.
    """

    def __init__(self, pairs: Sequence[Tuple[Node, Node]]):
        self._f64: List[Optional[Callable]] = []
        self._f32: List[Optional[Callable]] = []
        self._sint: List[Optional[Callable]] = []
        # per-box memo templates: static hulls, or _PENDING
        self._h64: List[object] = []
        self._h32: List[object] = []
        self._hint: List[object] = []
        # pair 0 stands for every structurally identical pair
        self._diffs: List[object] = [_ZERO]
        self._steps: List[Optional[Callable]] = [None]
        self._children: List[Tuple[int, ...]] = [()]
        # compile-time interning tables
        self._ids: Dict[tuple, int] = {}
        self._seen: Dict[int, int] = {}
        self._pair_ids: Dict[Tuple[int, int], int] = {}
        self.root_nodes = [(self._node(t), self._node(r)) for t, r in pairs]
        self._root_pairs = [self._pair(t, r) for t, r in pairs]
        self._orders = [self._order(p) for p in self._root_pairs]
        # Boxes need only the memo templates, closures and orders.
        del self._ids, self._seen, self._pair_ids, self._steps, self._children

    # -- nodes -------------------------------------------------------------

    def _node(self, node: Node) -> int:
        """The node's id, compiling it (and its operands) on first use."""
        i = self._seen.get(id(node))
        if i is None:
            key = node._key
            i = self._ids.get(key)
            if i is None:
                args = ([self._node(a) for a in node.args]
                        if isinstance(node, OpNode) else [])
                i = len(self._h64)
                self._ids[key] = i
                _append(self._sint, self._hint, self._sint_of(node, args))
                _append(self._f32, self._h32, self._f32_of(node, args))
                _append(self._f64, self._h64, self._f64_of(node, args, i))
            self._seen[id(node)] = i
        return i

    def _f64_of(self, node: Node, args: List[int], i: int):
        """Static double hull of ``node``, or a closure computing it."""
        if node.width != 64:
            return None
        if isinstance(node, Const):
            x = u2d(node.value)
            return None if math.isnan(x) else IntervalD.point(x)
        if isinstance(node, InputNode):
            # An absent input has no bit-pattern view either.
            name = node.name
            return lambda b: b.f64_inputs.get(name)
        if isinstance(node, OpNode):
            method = _SD_ARITH.get(node.op)
            if method is not None:
                return _binary(PairBox.f64, args[0], args[1],
                               getattr(_ARITH_D, method))
            if node.op == "sqrtsd":
                return _unary(PairBox.f64, args[0], _ARITH_D.sqrt)
            if node.op == "cvtss2sd":
                a = args[0]
                return lambda b: b.f32(a)  # exact widening
            if node.op in ("cvtsi2sd64", "cvtsi2sd32"):
                return _int_to_double(args[0])
        # Bit-pattern view: non-negative finite patterns map
        # monotonically to doubles (covers shifted exponent fields and
        # conditional-move results re-injected via movq).
        if self._hint[i] is None:
            return None
        return _pattern_to_double(i)

    def _f32_of(self, node: Node, args: List[int]):
        """Static single hull of ``node``, or a closure computing it."""
        if node.width != 32:
            return None
        if isinstance(node, Const):
            x = u2f(node.value)
            return None if math.isnan(x) else IntervalD.point(x)
        if isinstance(node, InputNode):
            key = (node.name, 0)
            return lambda b: b.f32_inputs.get(key)
        if isinstance(node, ExtractNode) and isinstance(node.child,
                                                        InputNode):
            key = (node.child.name, node.offset)
            return lambda b: b.f32_inputs.get(key)
        if isinstance(node, OpNode):
            method = _SS_ARITH.get(node.op)
            if method is not None:
                return _binary(PairBox.f32, args[0], args[1],
                               getattr(_ARITH_F, method))
            if node.op == "sqrtss":
                return _unary(PairBox.f32, args[0], _ARITH_F.sqrt)
            if node.op == "cvtsd2ss":
                return _double_to_single(args[0])
        return None

    def _sint_of(self, node: Node, args: List[int]):
        """Static signed-integer hull of ``node``, or a closure."""
        if isinstance(node, Const):
            value = sint64(node.value) if node.width == 64 else node.value
            return IntInterval(value, value)
        if node.width != 64:
            return None
        if isinstance(node, InputNode):
            return _double_bits(node.name)
        if not isinstance(node, OpNode):
            return None
        name = node.op
        combine = _SINT_BINARY.get(name)
        if combine is not None:
            return _binary(PairBox.sint, args[0], args[1], combine)
        if name in ("shl", "shr", "sar"):
            amount = node.args[1]
            if not isinstance(amount, Const):
                return None
            return _shift(name, args[0], amount.value)
        if name in ("cvtsd2si", "cvttsd2si"):
            return _double_to_int(
                args[0],
                _round_half_even if name == "cvtsd2si" else math.trunc)
        if name.startswith("cmov_"):
            return _cmov(self._decider(name[5:], node.args[0]),
                         args[1], args[2])
        return None

    def _decider(self, cc: str, flags: Node):
        """Closure deciding a cmov condition from a reified flags node,
        if the flag-setting instruction was a ucomisd/ucomiss whose
        operand hulls we can evaluate; None when it never decides."""
        if not isinstance(flags, OpNode):
            return None
        if flags.op == "flags_ucomisd":
            get = PairBox.f64
        elif flags.op == "flags_ucomiss":
            get = PairBox.f32
        else:
            return None
        x = self._node(flags.args[0])
        y = self._node(flags.args[1])

        def decide(b: PairBox) -> Optional[bool]:
            a = get(b, x)
            c = get(b, y)
            if a is None or c is None:
                return None
            return _decide_cmov(cc, (a, c))
        return decide

    # -- difference pairs --------------------------------------------------

    def _pair(self, t: Node, r: Node) -> int:
        """The pair id of ``diff(t, r)``, compiling it on first use."""
        ti = self._node(t)
        ri = self._node(r)
        if ti == ri:
            return 0
        p = self._pair_ids.get((ti, ri))
        if p is not None:
            return p
        children: Tuple[int, ...] = ()
        structural = None
        if (isinstance(t, OpNode) and isinstance(r, OpNode)
                and t.op == r.op and t.width == r.width == 64):
            name = t.op
            if name in _RULES:
                pairings = [((t.args[0], r.args[0]), (t.args[1], r.args[1]))]
                if name in _CROSSED:
                    pairings.append(
                        ((t.args[0], r.args[1]), (t.args[1], r.args[0])))
                compiled = tuple(
                    (self._pair(t1, r1), self._pair(t2, r2),
                     self._node(t1), self._node(r1),
                     self._node(t2), self._node(r2))
                    for (t1, r1), (t2, r2) in pairings)
                children = tuple(c for rule in compiled for c in rule[:2])
                structural = _rule_step(_RULES[name], ti, ri, compiled)
            elif name == "divsd":
                children = (self._pair(t.args[0], r.args[0]),
                            self._pair(t.args[1], r.args[1]))
                structural = _div_step(ti, ri, *children,
                                       self._node(t.args[1]),
                                       self._node(r.args[0]),
                                       self._node(r.args[1]))
            elif name == "sqrtsd":
                children = (self._pair(t.args[0], r.args[0]),)
                structural = _sqrt_step(ti, ri, children[0],
                                        self._node(t.args[0]),
                                        self._node(r.args[0]))
        # Two double constants need no rule of their own: their
        # structural difference is the hull subtraction itself.
        th = self._h64[ti]
        rh = self._h64[ri]
        if structural is None and th is not _PENDING \
                and rh is not _PENDING:
            value = _hull_diff(th, rh)
            step = None
        else:
            value = _PENDING
            step = _pair_step(structural, ti, ri)
        p = len(self._diffs)
        self._pair_ids[(ti, ri)] = p
        self._diffs.append(value)
        self._steps.append(step)
        self._children.append(children)
        return p

    def _order(self, root: int) -> List[Tuple[int, Callable]]:
        """The root's evaluated pairs, children before parents."""
        order: List[Tuple[int, Callable]] = []
        seen = set()

        def visit(p: int) -> None:
            if p in seen:
                return
            seen.add(p)
            for c in self._children[p]:
                visit(c)
            if self._steps[p] is not None:
                order.append((p, self._steps[p]))

        visit(root)
        return order


# -- hull closures -----------------------------------------------------------


def _append(fns: List[Optional[Callable]], memo: List[object], hull) -> None:
    """Record a node's hull: a closure evaluated per box, or a static
    value every box's memo starts from."""
    if callable(hull):
        fns.append(hull)
        memo.append(_PENDING)
    else:
        fns.append(None)
        memo.append(hull)


def _binary(get, x: int, y: int, fn):
    def hull(b: PairBox):
        p = get(b, x)
        q = get(b, y)
        if p is None or q is None:
            return None
        return _safe(fn, p, q)
    return hull


def _unary(get, x: int, fn):
    def hull(b: PairBox):
        p = get(b, x)
        return None if p is None else _safe(fn, p)
    return hull


def _int_to_double(x: int):
    def hull(b: PairBox) -> Optional[IntervalD]:
        value = b.sint(x)
        if value is None:
            return None
        lo, hi = float(value.lo), float(value.hi)
        if int(lo) != value.lo:
            lo = _down(lo)
        if int(hi) != value.hi:
            hi = _up(hi)
        return _safe(IntervalD, lo, hi)
    return hull


def _pattern_to_double(i: int):
    def hull(b: PairBox) -> Optional[IntervalD]:
        pattern = b.sint(i)
        if pattern is not None and pattern.lo >= 0 \
                and pattern.hi <= _MAX_FINITE_BITS:
            return _safe(IntervalD, u2d(pattern.lo), u2d(pattern.hi))
        return None
    return hull


def _double_to_single(x: int):
    def hull(b: PairBox) -> Optional[IntervalD]:
        a = b.f64(x)
        if a is None:
            return None
        return _safe(IntervalD, _down32(a.lo), _up32(a.hi))
    return hull


def _double_bits(name: str):
    # An input double read as bits (movq xmm -> gp): u2d is monotone
    # on non-negative finite patterns.
    def hull(b: PairBox) -> Optional[IntInterval]:
        interval = b.f64_inputs.get(name)
        if interval is not None and interval.lo >= 0.0 \
                and math.isfinite(interval.hi):
            return IntInterval(d2u(interval.lo), d2u(interval.hi))
        return None
    return hull


def _sint_add(a: IntInterval, b: IntInterval) -> IntInterval:
    return _require_signed64(a.lo + b.lo, a.hi + b.hi)


def _sint_sub(a: IntInterval, b: IntInterval) -> IntInterval:
    return _require_signed64(a.lo - b.hi, a.hi - b.lo)


def _sint_mul(a: IntInterval, b: IntInterval) -> IntInterval:
    corners = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return _require_signed64(min(corners), max(corners))


_SINT_BINARY = {"add": _sint_add, "sub": _sint_sub, "imul": _sint_mul,
                "and": _int_and, "or": _int_or}


def _shift(name: str, x: int, n: int):
    def hull(b: PairBox) -> Optional[IntInterval]:
        a = b.sint(x)
        if a is None:
            return None
        if name == "sar":
            # Python's >> is arithmetic and monotone for any sign.
            return IntInterval(a.lo >> n, a.hi >> n)
        if a.lo < 0:
            return None
        if name == "shl":
            return _safe(_require_signed64, a.lo << n, a.hi << n)
        return IntInterval(a.lo >> n, a.hi >> n)
    return hull


def _double_to_int(x: int, rounder):
    def hull(b: PairBox) -> Optional[IntInterval]:
        src = b.f64(x)
        if src is None:
            return None
        try:
            return IntInterval(_rounded_int(src.lo, rounder),
                               _rounded_int(src.hi, rounder))
        except IntervalUnsupported:
            return None
    return hull


def _cmov(decide, current: int, src: int):
    def hull(b: PairBox) -> Optional[IntInterval]:
        decision = None if decide is None else decide(b)
        if decision is True:
            return b.sint(src)
        if decision is False:
            return b.sint(current)
        a = b.sint(current)
        s = b.sint(src)
        if a is None or s is None:
            return None
        return IntInterval(min(a.lo, s.lo), max(a.hi, s.hi))
    return hull


# -- difference steps --------------------------------------------------------


def _hull_diff(th: Optional[IntervalD], rh: Optional[IntervalD]
               ) -> Optional[IntervalD]:
    """The separate-domain view: plain hull subtraction."""
    if th is None or rh is None:
        return None
    return _safe(_ARITH_D.sub, th, rh)


def _pair_step(structural, ti: int, ri: int):
    """One pair's difference: its structural rule (if any) met with the
    hull subtraction, so the rules are never worse than the separate
    domain."""
    def step(b: PairBox, diffs) -> Optional[IntervalD]:
        result = None if structural is None else structural(b, diffs)
        return _meet(result, _hull_diff(b.f64(ti), b.f64(ri)))
    return step


def _slack(hull: Optional[IntervalD]) -> Optional[float]:
    """Bound on one rounding error of an operation with result ``hull``:
    the ULP spacing at its largest magnitude (>= half an ULP everywhere
    in the hull, the round-to-nearest error bound)."""
    if hull is None:
        return None
    m = max(abs(hull.lo), abs(hull.hi))
    if not math.isfinite(m):
        return None
    return math.ulp(m)


def _pair_slack(b: PairBox, ti: int, ri: int) -> Optional[float]:
    # One rounding per program (an FMA's is its single fused one).
    st = _slack(b.f64(ti))
    sr = _slack(b.f64(ri))
    if st is None or sr is None:
        return None
    return st + sr


def _widen(d: Optional[IntervalD], slack: Optional[float]
           ) -> Optional[IntervalD]:
    if d is None or slack is None:
        return None
    return _safe(IntervalD, _down(d.lo - slack), _up(d.hi + slack))


def _product(b: PairBox, d1, d2, t1, r1, t2, r2) -> Optional[IntervalD]:
    # Both exact decompositions of t1*t2 - r1*r2 enclose the true
    # difference; meet them.
    d = None
    for u, v in ((b.f64(t2), b.f64(r1)), (b.f64(r2), b.f64(t1))):
        if u is None or v is None:
            continue
        p1 = _safe(_ARITH_D.mul, d1, u)   # d1 * t2  (or d1 * r2)
        p2 = _safe(_ARITH_D.mul, v, d2)   # r1 * d2  (or t1 * d2)
        if p1 is None or p2 is None:
            continue
        d = _meet(d, _safe(_ARITH_D.add, p1, p2))
    return d


def _select_rule(b, ti, ri, d1, d2, t1, r1, t2, r2):
    # 1-Lipschitz selections: the difference lies in the hull of the
    # argument differences, with no rounding of their own.
    return _safe(IntervalD, min(d1.lo, d2.lo), max(d1.hi, d2.hi))


def _add_rule(b, ti, ri, d1, d2, t1, r1, t2, r2):
    return _widen(_safe(_ARITH_D.add, d1, d2), _pair_slack(b, ti, ri))


def _sub_rule(b, ti, ri, d1, d2, t1, r1, t2, r2):
    return _widen(_safe(_ARITH_D.sub, d1, d2), _pair_slack(b, ti, ri))


def _mul_rule(b, ti, ri, d1, d2, t1, r1, t2, r2):
    d = _product(b, d1, d2, t1, r1, t2, r2)
    if d is None:
        return None
    return _widen(d, _pair_slack(b, ti, ri))


def _fma_mul_rule(b, ti, ri, d1, d2, t1, r1, t2, r2):
    # The multiply inside an FMA is exact; its single rounding is
    # charged to the enclosing fma_add.
    return _product(b, d1, d2, t1, r1, t2, r2)


_RULES = {"addsd": _add_rule, "fma_add": _add_rule, "subsd": _sub_rule,
          "mulsd": _mul_rule, "fma_mul": _fma_mul_rule,
          "minsd": _select_rule, "maxsd": _select_rule}


def _rule_step(rule, ti: int, ri: int, pairings):
    def structural(b: PairBox, diffs) -> Optional[IntervalD]:
        result = None
        for c1, c2, t1, r1, t2, r2 in pairings:
            d1 = diffs[c1]
            d2 = diffs[c2]
            if d1 is not None and d2 is not None:
                result = _meet(result,
                               rule(b, ti, ri, d1, d2, t1, r1, t2, r2))
        return result
    return structural


def _div_step(ti: int, ri: int, c1: int, c2: int, t2: int, r1: int,
              r2: int):
    def structural(b: PairBox, diffs) -> Optional[IntervalD]:
        d1 = diffs[c1]
        d2 = diffs[c2]
        t2h = b.f64(t2)
        r1h = b.f64(r1)
        r2h = b.f64(r2)
        if d1 is None or d2 is None or t2h is None or r1h is None \
                or r2h is None:
            return None
        denom = _safe(_ARITH_D.mul, t2h, r2h)
        if denom is None or denom.lo <= 0.0 <= denom.hi:
            return None
        # t1/t2 - r1/r2 = (d1*r2 - d2*r1) / (t2*r2)
        p1 = _safe(_ARITH_D.mul, d1, r2h)
        p2 = _safe(_ARITH_D.mul, d2, r1h)
        if p1 is None or p2 is None:
            return None
        num = _safe(_ARITH_D.sub, p1, p2)
        if num is None:
            return None
        return _widen(_safe(_ARITH_D.div, num, denom),
                      _pair_slack(b, ti, ri))
    return structural


def _sqrt_step(ti: int, ri: int, c1: int, t1: int, r1: int):
    def structural(b: PairBox, diffs) -> Optional[IntervalD]:
        d1 = diffs[c1]
        th = b.f64(t1)
        rh = b.f64(r1)
        if d1 is None or th is None or rh is None or th.lo < 0.0 \
                or rh.lo < 0.0:
            return None
        st = _safe(_ARITH_D.sqrt, th)
        sr = _safe(_ARITH_D.sqrt, rh)
        if st is None or sr is None:
            return None
        denom = _safe(_ARITH_D.add, st, sr)
        if denom is None or denom.lo <= 0.0:
            return None
        # sqrt(t1) - sqrt(r1) = d1 / (sqrt(t1) + sqrt(r1))
        return _widen(_safe(_ARITH_D.div, d1, denom),
                      _pair_slack(b, ti, ri))
    return structural


def _float_up(count: int) -> float:
    """Exact integer ULP count -> float, rounding *up* (counts past
    2^53 must not shrink when they leave integer arithmetic)."""
    f = float(count)
    if f < count:
        f = math.nextafter(f, math.inf)
    return f


def window_ulp_bound(ftype: str, t_hull: IntervalD, r_hull: IntervalD,
                     diff: Optional[IntervalD]) -> float:
    """Max ULP distance between floats ``t in t_hull``, ``r in r_hull``
    with ``|t - r|`` bounded by ``diff``.

    The pair spans a value window of width ``m = max |diff|`` inside the
    joint hull; float spacing is non-decreasing in magnitude, so sliding
    the window to the hull's minimum magnitude maximizes the number of
    representables it contains (a window containing zero fits inside
    ``[-m, m]``).  All window endpoints are pushed outward one ULP to
    absorb the endpoint arithmetic's own rounding.
    """
    if diff is None:
        return math.inf
    m = max(abs(diff.lo), abs(diff.hi))
    if m == 0.0:
        return 0.0
    if not math.isfinite(m):
        return math.inf
    lo = min(t_hull.lo, r_hull.lo)
    hi = max(t_hull.hi, r_hull.hi)
    up = _up32 if ftype == "f32" else _up
    down = _down32 if ftype == "f32" else _down
    if lo >= 0.0:
        top = min(up(lo + m), hi)
        return _float_up(index_of(top, ftype) - index_of(lo, ftype))
    if hi <= 0.0:
        bot = max(down(hi - m), lo)
        return _float_up(index_of(hi, ftype) - index_of(bot, ftype))
    top = min(up(m), hi)
    bot = max(down(-m), lo)
    return _float_up(index_of(top, ftype) - index_of(bot, ftype))
