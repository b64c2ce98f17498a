"""Lane transfers: ``analyze_batch`` against the per-box closures.

:meth:`IntervalTransfer.analyze_batch` runs a batch of boxes as lanes:
float64 columns for the lane forms, the compiled closures lane by lane
for every other step.  Each lane must give exactly what
:meth:`IntervalTransfer.analyze_with_stats` gives for its box: the
bound, the per-live-out map and the bit-op counts, or the error text.
The checker derives every leaf through it, ``CHUNK_LEAVES`` at a time,
and must report exactly what a per-leaf loop over
``analyze_with_stats`` reports.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.x86.assembler import assemble
from repro.x86.memory import Memory
from repro.x86.scalar import d2u

from repro.kernels.aek import vector as V
from repro.kernels.libimf import LIBIMF_KERNELS
from repro.verify import checker
from repro.verify.bnb import BnBConfig, BnBVerifier
from repro.verify.interval import (
    IntervalTransfer,
    IntervalUnsupported,
    TransferStats,
)
from repro.verify.partition import BitBox, index_of
from repro.verify.relational.domain import transfer_class

REDUCED_DEGREE = {"sin": 9, "cos": 8, "tan": 9, "log": 12, "exp": 8}
INF = math.inf


def _reference(transfer, box):
    """One box through the closures, as an ``analyze_unit`` work unit."""
    try:
        total, per_loc, stats = transfer.analyze_with_stats(box)
    except IntervalUnsupported as exc:
        return (math.inf, None, (1, 0, 0), str(exc))
    return (total, per_loc,
            (stats.boxes, stats.concrete_bit_ops, stats.widened_bit_ops),
            None)


def _assert_lanes_match(transfer, boxes):
    lanes = transfer.analyze_batch(boxes)
    assert len(lanes) == len(boxes)
    for box, lane in zip(boxes, lanes):
        assert lane == _reference(transfer, box), box.bounds


def _libimf_pair(name):
    factory = LIBIMF_KERNELS[name]
    spec = factory()
    return spec, factory(REDUCED_DEGREE[name]).program


def _certify(target, rewrite, live_outs, ranges, budget, domain="separate",
             memory=None, concrete_gp=None):
    verifier = BnBVerifier(target, rewrite, live_outs, ranges,
                           memory=memory, concrete_gp=concrete_gp,
                           domain=domain)
    result = verifier.run(BnBConfig(max_boxes=budget))
    return verifier, verifier.certificate(result)


def _f32_pair():
    """Single-lane arithmetic on the closures, reading a register the
    lane form of ``movq`` left as a concrete pattern."""
    target = assemble("""
        movq $0x3ff0000000000000, xmm2
        movd $0x3dcccccd, xmm1
        mulss xmm0, xmm1
        addss xmm2, xmm1
        addss xmm1, xmm0
    """)
    rewrite = assemble("""
        movd $0x3f8ccccd, xmm1
        mulss xmm1, xmm0
    """)
    return target, rewrite


class TestCertificateLeaves:
    """Every leaf of certificates with at least 100 leaves."""

    @pytest.mark.parametrize("domain", ["separate", "relational"])
    @pytest.mark.parametrize("name", sorted(REDUCED_DEGREE))
    def test_libimf_leaves(self, name, domain):
        spec, rewrite = _libimf_pair(name)
        verifier, cert = _certify(spec.program, rewrite, spec.live_outs,
                                  dict(spec.ranges), 200, domain)
        leaves = cert.leaf_boxes()
        assert len(leaves) >= 100
        _assert_lanes_match(verifier.transfer, leaves)

    @pytest.mark.parametrize("domain", ["separate", "relational"])
    def test_delta_leaves(self, domain):
        # Memory inputs and concrete GP registers: every step runs as
        # closures on the lane states.
        spec = V.delta_kernel()
        ranges = dict(spec.ranges)
        ranges.update(V.delta_mem_ranges())
        verifier, cert = _certify(
            spec.program, V.delta_rewrite(), spec.live_outs, ranges, 200,
            domain, memory=Memory(V.aek_segments()),
            concrete_gp=V.CONCRETE_GP_INDICES)
        leaves = cert.leaf_boxes()
        assert len(leaves) >= 100
        _assert_lanes_match(verifier.transfer, leaves)

    @pytest.mark.parametrize("name", ["sin", "cos", "tan"])
    def test_pure_fp_kernels_stay_in_columns(self, name, monkeypatch):
        # Every step of these kernels has a lane form: no lane state is
        # ever built, so the whole batch runs as numpy columns.
        spec, rewrite = _libimf_pair(name)
        verifier, cert = _certify(spec.program, rewrite, spec.live_outs,
                                  dict(spec.ranges), 64)
        transfer = verifier.transfer

        def no_lane_states(*args):
            raise AssertionError("a lane state was built")

        monkeypatch.setattr(transfer, "_fresh_state", no_lane_states)
        lanes = transfer.analyze_batch(cert.leaf_boxes())
        monkeypatch.undo()
        for box, lane in zip(cert.leaf_boxes(), lanes):
            assert lane == _reference(transfer, box)

    def test_f32_program_leaves(self):
        target, rewrite = _f32_pair()
        verifier, cert = _certify(target, rewrite, ["xmm0:s0"],
                                  {"xmm0:s0": (0.5, 2.0)}, 200)
        leaves = cert.leaf_boxes()
        assert len(leaves) >= 100
        assert all(math.isfinite(b) for b in cert.leaf_bounds)
        _assert_lanes_match(verifier.transfer, leaves)


# -- random lane-form programs ----------------------------------------------

_REGS = ("xmm0", "xmm1", "xmm2", "xmm3")
_FINITE_SPECIALS = (0.0, -0.0, 1.0, -1.0, INF, -INF, 5e-324,
                    1.7976931348623157e308)
_PATTERNS = tuple(d2u(x) for x in _FINITE_SPECIALS) + (0x7FF8000000000000,)
_RANGES = {"xmm0": (-INF, INF), "xmm1": (-INF, INF)}
_LIVE_OUTS = ["xmm0", "xmm1"]

_instr = st.one_of(
    st.tuples(st.just("movq"), st.sampled_from(_PATTERNS),
              st.sampled_from(_REGS)),
    st.tuples(st.sampled_from(["movsd", "movapd", "addsd", "subsd",
                               "mulsd", "divsd"]),
              st.sampled_from(_REGS), st.sampled_from(_REGS)),
)
_program = st.lists(_instr, min_size=1, max_size=8)
_endpoint = st.one_of(st.sampled_from(_FINITE_SPECIALS),
                      st.floats(allow_nan=False))
_box = st.tuples(st.tuples(_endpoint, _endpoint),
                 st.tuples(_endpoint, _endpoint))


def _assemble(ops):
    lines = []
    for op, src, dst in ops:
        if op == "movq":
            lines.append(f"movq $0x{src:016x}, {dst}")
        else:
            lines.append(f"{op} {src}, {dst}")
    return assemble("\n".join(lines) + "\n")


def _bit_box(values):
    bounds = []
    for a, b in values:
        lo, hi = sorted((index_of(a, "f64"), index_of(b, "f64")))
        bounds.append((lo, hi))
    return BitBox(tuple(bounds))


_MUL = [("mulsd", "xmm1", "xmm0")]
_SUB = [("subsd", "xmm1", "xmm0")]
_ADD = [("addsd", "xmm1", "xmm0")]
_DIV = [("divsd", "xmm1", "xmm0")]


@settings(max_examples=150, deadline=None)
@given(target=_program, rewrite=_program,
       boxes=st.lists(_box, min_size=1, max_size=6))
# 0 * inf products: possible NaNs freeze the lane
@example(target=_MUL, rewrite=_MUL,
         boxes=[((0.0, 1.0), (1.0, INF)), ((-INF, 0.0), (0.0, 0.0)),
                ((-1.0, 1.0), (2.0, 3.0))])
# inf - inf: a possible-NaN lane next to good ones
@example(target=_SUB, rewrite=_ADD,
         boxes=[((INF, INF), (INF, INF)), ((1.0, 2.0), (1.0, 2.0)),
                ((-INF, -INF), (INF, INF))])
# results at +-inf are not rounded inward
@example(target=_ADD, rewrite=_SUB,
         boxes=[((INF, INF), (1.0, 1.0)), ((-INF, -INF), (1.0, 1.0))])
# zero-straddling divisors, and possible NaN quotients (0 / 0,
# inf / inf)
@example(target=_DIV, rewrite=_MUL,
         boxes=[((1.0, 2.0), (-1.0, 1.0)), ((1.0, 2.0), (0.0, 1.0)),
                ((1.0, INF), (1.0, INF)), ((INF, INF), (INF, INF)),
                ((-1.0, 2.0), (-3.0, 4.0)), ((1.0, 2.0), (2.0, 4.0))])
# NaN immediates, and constants read back as single lanes
@example(target=[("movq", 0x7FF8000000000000, "xmm2"),
                 ("addsd", "xmm2", "xmm0")],
         rewrite=[("movq", d2u(1.0), "xmm2"), ("movapd", "xmm2", "xmm3"),
                  ("movsd", "xmm3", "xmm1")],
         boxes=[((0.0, 1.0), (0.0, 1.0))])
def test_random_lane_programs_match(target, rewrite, boxes):
    transfer = IntervalTransfer(_assemble(target), _assemble(rewrite),
                                _LIVE_OUTS, _RANGES)
    _assert_lanes_match(transfer, [_bit_box(b) for b in boxes])


# -- the checker over chunks ------------------------------------------------


def _reference_check(cert, target, rewrite, memory=None, concrete_gp=None,
                     max_failures=16):
    """Obligation 3 and the headline checks as one loop over
    ``analyze_with_stats`` (for certificates whose digests and tiling
    hold); returns the report's fields."""
    transfer = transfer_class(cert.domain)(
        target, rewrite, list(cert.live_outs), cert.value_ranges(),
        memory=memory, concrete_gp=dict(concrete_gp or {}))
    failures = []
    stats = TransferStats()
    rechecked = 0.0
    checked = 0
    for i, (leaf, recorded) in enumerate(zip(cert.leaf_boxes(),
                                             cert.leaf_bounds)):
        try:
            derived, _, leaf_stats = transfer.analyze_with_stats(leaf)
            leaf_stats.op_counts = dict(transfer.op_histogram)
            stats.merge(leaf_stats)
        except IntervalUnsupported as exc:
            derived = math.inf
            if math.isfinite(recorded):
                failures.append(
                    f"leaf {i}: recorded bound {recorded} but the "
                    f"analysis cannot reach the box ({exc})")
        if derived > recorded:
            failures.append(
                f"leaf {i}: recorded bound {recorded} below the "
                f"derived bound {derived}")
        if math.isinf(recorded) and cert.complete:
            failures.append(
                f"leaf {i}: infinite bound in a certificate marked "
                f"complete")
        rechecked = max(rechecked, min(derived, recorded))
        checked += 1
        if len(failures) >= max_failures:
            break
    worst = max(cert.leaf_bounds, default=0.0)
    if cert.bound_ulps < worst:
        failures.append(
            f"certificate bound {cert.bound_ulps} below worst leaf "
            f"bound {worst}")
    if cert.lower_bound > cert.bound_ulps:
        failures.append(
            f"lower bound {cert.lower_bound} exceeds certified bound "
            f"{cert.bound_ulps}")
    return (not failures, failures[:max_failures], checked,
            rechecked if checked else math.inf,
            (stats.boxes, stats.concrete_bit_ops, stats.widened_bit_ops,
             stats.op_counts))


def _report_fields(report):
    s = report.stats
    return (report.ok, report.failures, report.leaves_checked,
            report.rechecked_bound,
            (s.boxes, s.concrete_bit_ops, s.widened_bit_ops, s.op_counts))


def _assert_check_matches(cert, target, rewrite, **env):
    report = checker.check(cert, target, rewrite, **env)
    assert _report_fields(report) == _reference_check(cert, target, rewrite,
                                                      **env)
    return report


def _unreachable_pair():
    """``-inf + inf`` may be NaN, so the lowest leaf of ``[-inf, 0]`` is
    unanalyzable: a ``complete = False`` certificate."""
    target = assemble("movq $0x7ff0000000000000, xmm1\n"
                      "addsd xmm1, xmm0\n")
    rewrite = assemble("movq $0x7ff0000000000000, xmm1\n"
                       "addsd xmm0, xmm1\n"
                       "movsd xmm1, xmm0\n")
    return target, rewrite, {"xmm0": (-INF, 0.0)}


class TestCheckerChunks:
    @pytest.fixture(scope="class")
    def exp_cert(self):
        spec, rewrite = _libimf_pair("exp")
        _, cert = _certify(spec.program, rewrite, spec.live_outs,
                           dict(spec.ranges), 64)
        return cert, spec.program, rewrite

    def test_empty_batch(self, exp_cert):
        cert, target, rewrite = exp_cert
        transfer = IntervalTransfer(target, rewrite, list(cert.live_outs),
                                    cert.value_ranges())
        assert transfer.analyze_batch([]) == []

    @pytest.mark.parametrize("budget", [1, 5, 7, 9])
    def test_chunk_edges(self, budget, monkeypatch):
        # 1, chunk - 1, chunk and chunk + 1 leaves with chunks of 4.
        monkeypatch.setattr(checker, "CHUNK_LEAVES", 4)
        spec, rewrite = _libimf_pair("log")
        _, cert = _certify(spec.program, rewrite, spec.live_outs,
                           dict(spec.ranges), budget)
        assert len(cert.leaves) == {1: 1, 5: 3, 7: 4, 9: 5}[budget]
        report = _assert_check_matches(cert, spec.program, rewrite)
        assert report.ok and report.leaves_checked == len(cert.leaves)

    @pytest.mark.parametrize("domain", ["separate", "relational"])
    @pytest.mark.parametrize("name", ["exp", "log", "tan"])
    def test_genuine_certificates(self, name, domain, monkeypatch):
        monkeypatch.setattr(checker, "CHUNK_LEAVES", 16)
        spec, rewrite = _libimf_pair(name)
        _, cert = _certify(spec.program, rewrite, spec.live_outs,
                           dict(spec.ranges), 64, domain)
        report = _assert_check_matches(cert, spec.program, rewrite)
        assert report.ok

    def test_genuine_delta_certificate(self):
        spec = V.delta_kernel()
        ranges = dict(spec.ranges)
        ranges.update(V.delta_mem_ranges())
        env = dict(memory=Memory(V.aek_segments()),
                   concrete_gp=V.CONCRETE_GP_INDICES)
        _, cert = _certify(spec.program, V.delta_rewrite(), spec.live_outs,
                           ranges, 32, **env)
        assert _assert_check_matches(cert, spec.program, V.delta_rewrite(),
                                     **env).ok

    def test_lowered_leaf_bound(self, exp_cert):
        cert, target, rewrite = exp_cert
        worst = max(range(len(cert.leaf_bounds)),
                    key=lambda i: cert.leaf_bounds[i])
        bounds = list(cert.leaf_bounds)
        bounds[worst] = 0.0
        bad = dataclasses.replace(cert, leaf_bounds=tuple(bounds))
        assert not _assert_check_matches(bad, target, rewrite).ok

    def test_infinite_bound_in_complete_certificate(self, exp_cert):
        cert, target, rewrite = exp_cert
        bounds = list(cert.leaf_bounds)
        bounds[3] = math.inf
        bad = dataclasses.replace(cert, leaf_bounds=tuple(bounds),
                                  bound_ulps=math.inf)
        assert not _assert_check_matches(bad, target, rewrite).ok

    def test_unreachable_leaf(self):
        target, rewrite, ranges = _unreachable_pair()
        _, cert = _certify(target, rewrite, ["xmm0"], ranges, 16)
        assert not cert.complete
        # The honest certificate passes; a finite bound on the
        # unreachable leaf does not.
        assert _assert_check_matches(cert, target, rewrite).ok
        unreachable = cert.leaf_bounds.index(math.inf)
        bounds = list(cert.leaf_bounds)
        bounds[unreachable] = 1.0
        bad = dataclasses.replace(cert, leaf_bounds=tuple(bounds))
        report = _assert_check_matches(bad, target, rewrite)
        assert any("cannot reach the box (possible NaN: inf + -inf)" in f
                   for f in report.failures)

    @pytest.mark.parametrize("max_failures", [5, 16])
    def test_stops_at_max_failures(self, exp_cert, max_failures,
                                   monkeypatch):
        # Every leaf fails; the check stops inside the second chunk.
        monkeypatch.setattr(checker, "CHUNK_LEAVES", 4)
        cert, target, rewrite = exp_cert
        bad = dataclasses.replace(
            cert, leaf_bounds=tuple(0.0 for _ in cert.leaf_bounds),
            bound_ulps=0.0)
        report = checker.check(bad, target, rewrite,
                               max_failures=max_failures)
        assert _report_fields(report) == _reference_check(
            bad, target, rewrite, max_failures=max_failures)
        assert report.leaves_checked == max_failures < len(cert.leaves)
