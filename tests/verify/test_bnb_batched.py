"""Identity and determinism tests for the branch-and-bound search.

The search's contract is stronger than soundness: for a fixed
:class:`BnBConfig` its refinement order, leaf tiling, certified bound,
and certificate bytes are fixed — independent of prefix sharing and of
mid-run checkpoint/resume.  These tests pin each clause against
certificate digests recorded before the search was cut down to one
in-process loop (while a reference engine and an interpretive transfer
still agreed with it), against the search with prefix sharing off, and
against brute-force oracles.
"""

import hashlib
import json
import math
import random

import pytest

from repro.x86.assembler import assemble
from repro.x86.memory import Memory, Segment
from repro.x86.testcase import TestCase

from repro.core.serialize import canonical_json
from repro.kernels.aek import vector as V
from repro.kernels.libimf import LIBIMF_KERNELS
from repro.verify import exhaustive_check
from repro.verify.bnb import BnBCheckpoint, BnBConfig, BnBVerifier
from repro.verify.partition import BitBox, covered_seed_count

from tests.verify.conftest import exhaustive_oracle, without_prefix_sharing

REDUCED_DEGREE = {"sin": 9, "cos": 8, "tan": 9, "log": 12, "exp": 8}

# Certificate digests (``_cert_digest``) recorded with the speculative
# dispatcher and the reference engine still in place, which agreed on
# every one of them.  Certificate bytes must never move.
PINNED_CERTS = {
    ("separate", "sin", 64):
        "ec951cb2f07df30965252d919dff9a0b45b03b070e32e760b17704d730acaf8f",
    ("separate", "log", 64):
        "c1952d9a23924926b594ac508572abbac5ce0ab57c5350209b5de35e51cea0fa",
    ("separate", "exp", 64):
        "98e721ca9b0d04d356e99cc5db18941278da1a89f19a32b8f795bb40feec76be",
    ("relational", "exp", 48):
        "1ee9195066c7e12c5e290e2d4b52dc707b0d1ed775a471bcfed0468f9bdb5fab",
    ("relational", "tan", 48):
        "af02f9e35a5c0745be6c98b21c7b73a687182542569ab02a118bb372aa2476f9",
    ("relational", "log", 48):
        "754666acab61d5b5882ed4786ad0f25d16bb7c9f0ac02d8ffb78a999b436662a",
}
# A fabricated counterexample inside the poly range.
POLY_SEEDS = (((1.25,), 2.0),)
POLY_SEEDED_CERT = \
    "814082dc41054ecafa604d48fe9854f788a06dcd32020126cfc41a188e45dd59"


def _poly_pair():
    target = assemble("""
        movq $0.1d, xmm1
        mulsd xmm0, xmm1
        addsd xmm1, xmm0
    """)
    rewrite = assemble("""
        movq $1.1d, xmm1
        mulsd xmm1, xmm0
    """)
    return target, rewrite


def _poly_verifier():
    target, rewrite = _poly_pair()
    return BnBVerifier(target, rewrite, ["xmm0"], {"xmm0": (0.5, 2.0)})


def _delta_verifier():
    spec = V.delta_kernel()
    ranges = dict(spec.ranges)
    ranges.update(V.delta_mem_ranges())
    return BnBVerifier(spec.program, V.delta_rewrite(), spec.live_outs,
                       ranges, memory=Memory(V.aek_segments()),
                       concrete_gp=V.CONCRETE_GP_INDICES)


def _libimf_verifier(name, domain="separate"):
    factory = LIBIMF_KERNELS[name]
    spec = factory()
    rewrite = factory(REDUCED_DEGREE[name]).program
    return BnBVerifier(spec.program, rewrite, spec.live_outs,
                       dict(spec.ranges), domain=domain)


def _cert_digest(verifier, result, config):
    """Certificate identity: canonical bytes with wall time scrubbed
    (the same scrub the campaign worker applies before storing)."""
    doc = verifier.certificate(result, config=config).to_dict()
    doc.get("stats", {})["wall_time"] = 0.0
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def _partition(result):
    return (result.bound_ulps, result.leaf_bounds,
            [box.bounds for box in result.leaves])


class TestEngineIdentity:
    """The one search runs in-process; certificates record one job."""

    def test_jobs_other_than_one_rejected(self):
        with pytest.raises(ValueError, match="in-process"):
            _poly_verifier().run(BnBConfig(max_boxes=8, jobs=2))

    def test_certificates_record_one_job(self):
        verifier = _poly_verifier()
        cfg = BnBConfig(max_boxes=8)
        doc = verifier.certificate(verifier.run(cfg), config=cfg).to_dict()
        assert doc["config"]["jobs"] == 1
        assert doc["stats"]["jobs"] == 1


class TestPinnedCertificates:
    @pytest.mark.parametrize("domain,name,budget", sorted(PINNED_CERTS))
    def test_libimf_digest(self, domain, name, budget):
        verifier = _libimf_verifier(name, domain=domain)
        cfg = BnBConfig(max_boxes=budget)
        result = verifier.run(cfg)
        assert _cert_digest(verifier, result, cfg) == \
            PINNED_CERTS[(domain, name, budget)]

    def test_seeded_poly_digest(self):
        verifier = _poly_verifier()
        cfg = BnBConfig(max_boxes=48, seeds=POLY_SEEDS)
        result = verifier.run(cfg)
        assert result.seeds_covered == 1
        assert _cert_digest(verifier, result, cfg) == POLY_SEEDED_CERT


class TestTargetGap:
    """The gap test reads the max bound over every unsplit entry; these
    runs were recorded when it rescanned frontier and leaves each
    round."""

    def test_gap_terminated_run_pinned(self):
        verifier = _libimf_verifier("exp")
        cfg = BnBConfig(max_boxes=16384, target_gap=1e13,
                        seeds=(((1.0,), 3000.0),))
        result = verifier.run(cfg)
        assert result.termination == "gap"
        assert result.rounds == 96
        assert _cert_digest(verifier, result, cfg) == \
            "ed55a2966f49e8af673a6140c4e6a5a514209805b4cfc53ef2286d5fae9c0821"

    def test_pruned_leaves_hold_the_gap_open(self):
        # Boxes below the 1e15 seed are pruned into leaves while an
        # unsplittable leaf keeps the max near 1e16, so the gap never
        # closes and the frontier runs dry.
        verifier = _libimf_verifier("exp")
        cfg = BnBConfig(max_boxes=4096, target_gap=0.5,
                        seeds=(((1.0,), 1e15),))
        result = verifier.run(cfg)
        assert result.termination == "exhausted"
        assert (result.rounds, result.boxes_pruned) == (1600, 1541)
        assert _cert_digest(verifier, result, cfg) == \
            "2ade1fd6b3a834d408504dd0639ffae5b6858628e3a13c9a8e4be542286e21ab"

        # A resumed run must count the checkpoint's leaves too.
        snapshots = []
        verifier.run(cfg, checkpoint_rounds=400,
                     on_checkpoint=snapshots.append)
        mid = [s for s in snapshots if s.leaves][0]
        resumed = verifier.run(cfg, resume=BnBCheckpoint.from_dict(
            json.loads(json.dumps(mid.to_dict()))))
        assert resumed.termination == "exhausted"
        assert _cert_digest(verifier, resumed, cfg) == \
            _cert_digest(verifier, result, cfg)


class TestPrefixSharing:
    @pytest.mark.parametrize("name", ["sin", "exp"])
    def test_sharing_invisible_in_partition(self, name, monkeypatch):
        verifier = _libimf_verifier(name)
        on = verifier.run(BnBConfig(max_boxes=64))
        without_prefix_sharing(verifier, monkeypatch)
        off = verifier.run(BnBConfig(max_boxes=64))
        assert _partition(on) == _partition(off)
        triple = lambda r: (r.stats.boxes, r.stats.concrete_bit_ops,
                            r.stats.widened_bit_ops)
        assert triple(on) == triple(off)


class TestCoveredSeedCount:
    def _oracle(self, boxes, seeds, bound):
        covered = 0
        for idx, err in seeds:
            if not err <= bound:
                continue
            if any(box.contains(idx) for box in boxes):
                covered += 1
        return covered

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(42)
        for _ in range(50):
            ndims = rng.randint(1, 3)
            boxes = []
            for _ in range(rng.randint(0, 12)):
                bounds = []
                for _ in range(ndims):
                    lo = rng.randint(0, 100)
                    bounds.append((lo, lo + rng.randint(0, 30)))
                boxes.append(BitBox(tuple(bounds)))
            seeds = []
            for _ in range(rng.randint(0, 10)):
                idx = tuple(rng.randint(0, 130) for _ in range(ndims))
                err = rng.choice([0.0, 1.5, 7.0, math.inf, math.nan])
                seeds.append((idx, err))
            bound = rng.choice([0.0, 2.0, 10.0, math.inf])
            assert covered_seed_count(boxes, seeds, bound) == \
                self._oracle(boxes, seeds, bound)

    def test_nan_error_never_covered(self):
        box = BitBox(((0, 10),))
        assert covered_seed_count([box], [((5,), math.nan)], math.inf) == 0

    def test_empty_inputs(self):
        assert covered_seed_count([], [((0,), 0.0)], 1.0) == 0
        assert covered_seed_count([BitBox(((0, 1),))], [], 1.0) == 0


class TestCheckpointResume:
    """Satellite: a mid-round interrupt/resume reproduces the
    uninterrupted run bit-for-bit — bound, leaf tiling, and certificate
    digest."""

    def test_resume_bit_identical(self):
        verifier = _poly_verifier()
        config = BnBConfig(max_boxes=64)
        baseline = verifier.run(config)

        snapshots = []
        verifier.run(config, checkpoint_rounds=3,
                     on_checkpoint=snapshots.append)
        assert snapshots, "no checkpoints captured"
        mid = snapshots[len(snapshots) // 2]
        assert 0 < mid.rounds < baseline.rounds

        # Serialize through JSON: resume must survive the wire format.
        restored = BnBCheckpoint.from_dict(
            json.loads(json.dumps(mid.to_dict())))
        resumed = verifier.run(config, resume=restored)

        assert _partition(resumed) == _partition(baseline)
        assert resumed.boxes_explored == baseline.boxes_explored
        assert resumed.rounds == baseline.rounds
        assert resumed.boxes_pruned == baseline.boxes_pruned
        assert _cert_digest(verifier, resumed, config) == \
            _cert_digest(verifier, baseline, config)

    @pytest.mark.parametrize("name", ["poly", "delta"])
    def test_resume_without_sharing_matches(self, name, monkeypatch):
        # Checkpoints carry no transfer state: a snapshot written by the
        # search with prefix sharing resumes under the from-scratch
        # transfer to the identical partition.  (delta's memory inputs
        # are first read at steps 3 and 7, so its splits share.)
        verifier = _poly_verifier() if name == "poly" else _delta_verifier()
        cfg = BnBConfig(max_boxes=64)
        baseline = verifier.run(cfg)
        snapshots = []
        verifier.run(cfg, checkpoint_rounds=5,
                     on_checkpoint=snapshots.append)
        without_prefix_sharing(verifier, monkeypatch)
        resumed = verifier.run(cfg, resume=snapshots[0])
        assert _partition(resumed) == _partition(baseline)


class TestCheckpointThrottle:
    def test_wall_clock_gate_suppresses_snapshots(self):
        verifier = _poly_verifier()
        snapshots = []
        verifier.run(BnBConfig(max_boxes=64),
                     checkpoint_rounds=1,
                     on_checkpoint=snapshots.append,
                     checkpoint_seconds=3600.0)
        # The interval clock starts at run() entry, so a fast search
        # never reaches the first wall-clock gate.
        assert snapshots == []

    def test_zero_interval_checkpoints_every_gated_round(self):
        verifier = _poly_verifier()
        snapshots = []
        result = verifier.run(BnBConfig(max_boxes=64),
                              checkpoint_rounds=1,
                              on_checkpoint=snapshots.append,
                              checkpoint_seconds=0.0)
        # One per round after round 0, plus one on the terminating
        # iteration (the gate runs before the budget check).
        assert len(snapshots) == result.rounds


def _cex_inputs(result):
    """TestCase has no structural __eq__; compare the live-in bits."""
    if result.counterexample is None:
        return None
    return dict(result.counterexample.inputs)


def _grid_cases():
    """(target, rewrite, live_outs, ranges, base factory, bits, max_ulps)
    per exhaustive grid shape the backends must agree on."""
    target, rewrite = _poly_pair()
    empty = lambda: TestCase({})  # noqa: E731
    return {
        "poly": (target, rewrite, ["xmm0"], {"xmm0": (0.5, 2.0)}, empty,
                 8, 0.0),
        # The first counterexample is grid point (0, 3); with the first
        # input varying fastest it would be (6, 0).
        "two-inputs": (
            assemble("addsd xmm1, xmm0\nmovq $0.1d, xmm2\n"
                     "addsd xmm2, xmm0"),
            assemble("movq $0.1d, xmm2\naddsd xmm2, xmm1\n"
                     "addsd xmm1, xmm0"),
            ["xmm0"], {"xmm0": (0.5, 2.0), "xmm1": (-1.0, 3.0)}, empty,
            5, 1.0),
        # The base test's xmm0:s1 comes after xmm0 in its inputs, so it
        # overwrites the high half of every grid point.
        "overlapping-inputs": (
            target, rewrite, ["xmm0"], {"xmm0": (0.5, 2.0)},
            lambda: TestCase({"xmm0": 0, "xmm0:s1": 0x3FF00000}), 6, 0.0),
        "f32": (assemble("sqrtss xmm0, xmm1\nmulss xmm1, xmm1"),
                assemble("movss xmm0, xmm1"),
                ["xmm1:s0"], {"xmm0:s0": (0.5, 3.0)}, empty, 8, 0.0),
        # Negative inputs truncate and wrap to 32 bits; the eax input
        # overwrites (and zero-extends over) the base test's rax.
        "gp32": (assemble("imul eax, eax\nadd $7, eax"),
                 assemble("imul eax, eax\nshl $1, eax"),
                 ["eax"], {"eax": (-50.0, 50.0)},
                 lambda: TestCase({"rax": 0xFFFFFFFF12345678}), 6, 7.0),
        "zero-bits": (target, rewrite, ["xmm0"], {"xmm0": (0.5, 2.0)},
                      empty, 0, 0.0),
        # Lanes where both programs fault are skipped; where only one
        # faults, the error is infinite.
        "faults-some-lanes": (
            assemble("movsd 8(rax), xmm0"), assemble("movsd (rax), xmm0"),
            ["xmm0"], {"rax": (16320.0, 16512.0)},
            lambda: TestCase({}, [Segment("table", 0x4000, bytes(range(64)),
                                          writable=False)]),
            6, 0.0),
        # Both programs fault on the same lanes, where the target has
        # already written xmm0: those lanes count as no error.
        "same-faults": (
            assemble("movq $1.0d, xmm0\nmovsd (rax), xmm0"),
            assemble("movsd (rax), xmm0"),
            ["xmm0"], {"rax": (16320.0, 16512.0)},
            lambda: TestCase({}, [Segment("table", 0x4000, bytes(range(64)),
                                          writable=False)]),
            6, 0.0),
        # The rewrite stores, so each of its lanes needs its own
        # writable segment; the target's lanes share one template.
        "writes-memory": (
            target,
            assemble("movsd xmm0, (rbx)\nmovq $1.1d, xmm1\n"
                     "mulsd (rbx), xmm1\nmovsd xmm1, xmm0"),
            ["xmm0", "[buf+0]:f64"], {"xmm0": (0.5, 2.0)},
            lambda: TestCase({"rbx": 0x4000}, [
                Segment("buf", 0x4000, bytes(64), writable=True)]),
            6, 4.6085e18),
        # min(x, 0.75) against x: the first counterexample lies past the
        # first 4,096-lane chunk.
        "past-first-chunk": (
            assemble("movq $0.75d, xmm1"),
            assemble("movq $0.75d, xmm1\nminsd xmm1, xmm0"),
            ["xmm0"], {"xmm0": (0.0, 1.0)}, empty, 13, 0.0),
    }


# 16-bit maxima of the libimf pairs (the end-to-end check workload's
# pins) and the first counterexample at one threshold per kernel,
# recorded with the per-case loop the column pipeline replaced.
LIBIMF_GRID_PINS = {
    "cos": (276529152.0, 1e6, {"xmm0:d": 0xBFF941B154157EEE}),
    "exp": (6973.0, 6900.0, {"xmm0:d": 0xC02389DF89DF89E0}),
    "log": (5358958.0, 3e6, {"xmm0:d": 0x3FEE104A5A04B83A}),
    # sin's largest error is at grid index 0, so any lower threshold
    # stops there; at its maximum nothing exceeds it.
    "sin": (8.778595490226544e+18, 8.778595490226544e+18, None),
    "tan": (369.0, 350.0, {"xmm0:d": 0xBFF7FFCFFFCFFFD0}),
}


class TestExhaustiveBackends:
    def test_backends_agree_bit_for_bit(self):
        for case, (target, rewrite, live_outs, ranges, base, bits,
                   max_ulps) in _grid_cases().items():
            oracle = exhaustive_oracle(target, rewrite, live_outs, ranges,
                                       base, bits_per_input=bits,
                                       max_ulps=max_ulps)
            for backend in ("emulator", "jit", "vector"):
                result = exhaustive_check(target, rewrite, live_outs, ranges,
                                          base, bits_per_input=bits,
                                          max_ulps=max_ulps, backend=backend)
                where = (case, backend)
                assert result.max_ulps == oracle.max_ulps, where
                assert result.cases_checked == oracle.cases_checked, where
                assert _cex_inputs(result) == _cex_inputs(oracle), where

    @pytest.mark.parametrize("name", sorted(LIBIMF_GRID_PINS))
    def test_libimf_grid_pins(self, name):
        worst, threshold, cex = LIBIMF_GRID_PINS[name]
        factory = LIBIMF_KERNELS[name]
        spec = factory()
        result = exhaustive_check(spec.program,
                                  factory(REDUCED_DEGREE[name]).program,
                                  spec.live_outs, dict(spec.ranges),
                                  spec.base_testcase, bits_per_input=16,
                                  max_ulps=threshold)
        assert result.max_ulps == worst
        assert result.cases_checked == 1 << 16
        inputs = _cex_inputs(result)
        if inputs is not None:
            inputs = {str(loc): bits for loc, bits in inputs.items()}
        assert inputs == cex

    def test_default_backend_is_vector(self):
        import inspect
        sig = inspect.signature(exhaustive_check)
        assert sig.parameters["backend"].default == "vector"

    def test_chunking_preserves_first_counterexample(self):
        import repro.verify.exhaustive as ex
        target, rewrite = _poly_pair()
        ranges = {"xmm0": (0.5, 2.0)}
        big = exhaustive_check(target, rewrite, ["xmm0"], ranges,
                               lambda: TestCase({}), bits_per_input=9)
        original = ex._BATCH
        ex._BATCH = 17  # force many ragged chunks
        try:
            small = exhaustive_check(target, rewrite, ["xmm0"], ranges,
                                     lambda: TestCase({}),
                                     bits_per_input=9)
        finally:
            ex._BATCH = original
        assert small.max_ulps == big.max_ulps
        assert small.cases_checked == big.cases_checked
        assert _cex_inputs(small) == _cex_inputs(big)
