"""Identity and determinism tests for the branch-and-bound search.

The search's contract is stronger than soundness: for a fixed
:class:`BnBConfig` its refinement order, leaf tiling, certified bound,
and certificate bytes are fixed — independent of prefix sharing, of
the transfer implementation (compiled closures vs the interpretive
oracle), and of mid-run checkpoint/resume.  These tests pin each
clause against the interpretive oracle, against certificate digests
recorded before the search was cut down to one in-process loop, and
against brute-force oracles.
"""

import hashlib
import json
import math
import random

import pytest

from repro.x86.assembler import assemble
from repro.x86.testcase import TestCase

from repro.core.serialize import canonical_json
from repro.kernels.libimf import LIBIMF_KERNELS
from repro.verify import exhaustive_check
from repro.verify.bnb import BnBCheckpoint, BnBConfig, BnBVerifier
from repro.verify.partition import BitBox, covered_seed_count

from tests.verify.conftest import interpretive_search, without_prefix_sharing

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
    """The search over compiled transfers matches the same search over
    the interpretive oracle, certificate byte for certificate byte."""

    @pytest.mark.parametrize("name", ["sin", "log"])
    def test_batched_matches_reference_cert(self, name, monkeypatch):
        verifier = _libimf_verifier(name)
        cfg = BnBConfig(max_boxes=64)
        compiled = verifier.run(cfg)
        compiled_digest = _cert_digest(verifier, compiled, cfg)
        interpretive_search(verifier, monkeypatch)
        oracle = verifier.run(cfg)
        assert _partition(compiled) == _partition(oracle)
        assert compiled_digest == _cert_digest(verifier, oracle, cfg)

    def test_batched_matches_reference_with_seeds(self, monkeypatch):
        verifier = _poly_verifier()
        cfg = BnBConfig(max_boxes=48, seeds=POLY_SEEDS)
        compiled = verifier.run(cfg)
        interpretive_search(verifier, monkeypatch)
        oracle = verifier.run(cfg)
        assert _partition(compiled) == _partition(oracle)
        assert compiled.seeds_covered == oracle.seeds_covered
        assert compiled.boxes_pruned == oracle.boxes_pruned

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

    def test_resume_under_reference_engine_matches_batched(self,
                                                           monkeypatch):
        # Checkpoints carry no transfer state: a snapshot written by the
        # compiled search resumes under the interpretive oracle to the
        # identical partition.
        verifier = _poly_verifier()
        cfg = BnBConfig(max_boxes=64)
        baseline = verifier.run(cfg)
        snapshots = []
        verifier.run(cfg, checkpoint_rounds=5,
                     on_checkpoint=snapshots.append)
        interpretive_search(verifier, monkeypatch)
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


class TestExhaustiveBackends:
    def test_backends_agree_bit_for_bit(self):
        target, rewrite = _poly_pair()
        ranges = {"xmm0": (0.5, 2.0)}
        results = {
            backend: exhaustive_check(target, rewrite, ["xmm0"], ranges,
                                      lambda: TestCase({}),
                                      bits_per_input=8, backend=backend)
            for backend in ("emulator", "jit", "vector")
        }
        baseline = results["emulator"]
        for backend, result in results.items():
            assert result.max_ulps == baseline.max_ulps, backend
            assert result.cases_checked == baseline.cases_checked, backend
            assert _cex_inputs(result) == _cex_inputs(baseline), backend

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
