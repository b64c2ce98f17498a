"""Ledger semantics: dedupe, claiming, retry, cascade, recovery,
content-addressed artifacts, checkpoint files."""

import os

import pytest

from repro.service.jobs import JobSpec
from repro.service.store import Ledger


@pytest.fixture
def ledger(tmp_path):
    with Ledger(str(tmp_path / "store")) as led:
        yield led


def _job(n=0, kind="search", deps=()):
    return JobSpec(kind, {"n": n}, deps=tuple(deps), role=f"job[{n}]")


class TestJobs:
    def test_add_and_fetch(self, ledger):
        spec = _job(1)
        assert ledger.add_job(spec)
        row = ledger.job(spec.digest)
        assert row["state"] == "pending"
        assert row["kind"] == "search"
        assert row["attempts"] == 0

    def test_dedupe_on_digest(self, ledger):
        spec = _job(1)
        assert ledger.add_job(spec)
        assert not ledger.add_job(spec)
        assert len(ledger.jobs()) == 1

    def test_same_payload_different_kind_is_different_job(self, ledger):
        assert ledger.add_job(JobSpec("search", {"n": 1}))
        assert ledger.add_job(JobSpec("select", {"n": 1}))
        assert len(ledger.jobs()) == 2

    def test_claim_respects_dependencies(self, ledger):
        up = _job(1)
        down = _job(2, kind="select", deps=[up.digest])
        ledger.add_job(up)
        ledger.add_job(down)
        claimed = ledger.claim_ready(10)
        assert [j["digest"] for j in claimed] == [up.digest]
        # Upstream not done yet: downstream stays unclaimable.
        assert ledger.claim_ready(10) == []
        ledger.finish(up.digest)
        claimed = ledger.claim_ready(10)
        assert [j["digest"] for j in claimed] == [down.digest]

    def test_claim_increments_attempts_and_records(self, ledger):
        spec = _job(1)
        ledger.add_job(spec)
        job = ledger.claim_ready(1)[0]
        assert job["attempts"] == 1
        attempts = ledger.attempts_of(spec.digest)
        assert len(attempts) == 1
        assert attempts[0]["finished_at"] is None

    def test_finish_closes_attempt(self, ledger):
        spec = _job(1)
        ledger.add_job(spec)
        ledger.claim_ready(1)
        ledger.finish(spec.digest)
        assert ledger.job(spec.digest)["state"] == "done"
        attempt = ledger.attempts_of(spec.digest)[0]
        assert attempt["outcome"] == "ok"
        assert attempt["finished_at"] is not None

    def test_fail_with_retry_backs_off(self, ledger):
        spec = _job(1)
        ledger.add_job(spec, max_attempts=3)
        ledger.claim_ready(1)
        state = ledger.fail(spec.digest, "boom", retry_in=3600.0)
        assert state == "pending"
        row = ledger.job(spec.digest)
        assert row["error"] == "boom"
        # Backoff: not claimable now, claimable after not_before.
        assert ledger.claim_ready(1) == []
        assert ledger.claim_ready(1, now=row["not_before"] + 1) != []

    def test_fail_exhausts_attempts(self, ledger):
        spec = _job(1)
        ledger.add_job(spec, max_attempts=2)
        for expected in ("pending", "failed"):
            ledger.claim_ready(1, now=ledger.job(spec.digest)["not_before"]
                               + 1)
            assert ledger.fail(spec.digest, "boom", retry_in=0.0) == expected

    def test_failure_cascades_to_dependents(self, ledger):
        up = _job(1)
        mid = _job(2, kind="select", deps=[up.digest])
        down = _job(3, kind="verify", deps=[mid.digest])
        for spec in (up, mid, down):
            ledger.add_job(spec, max_attempts=1)
        ledger.claim_ready(1)
        ledger.fail(up.digest, "boom", retry_in=None)
        assert ledger.job(mid.digest)["state"] == "failed"
        assert ledger.job(down.digest)["state"] == "failed"
        assert "upstream failed" in ledger.job(down.digest)["error"]

    def test_recover_releases_running_jobs(self, ledger):
        spec = _job(1)
        ledger.add_job(spec)
        ledger.claim_ready(1)
        assert ledger.job(spec.digest)["state"] == "running"
        assert ledger.recover() == 1
        row = ledger.job(spec.digest)
        assert row["state"] == "pending"
        # The interrupted attempt is refunded: it doesn't count toward
        # max_attempts, so a crash loop can't exhaust the retry budget.
        assert row["attempts"] == 0
        assert ledger.attempts_of(spec.digest)[0]["outcome"] == \
            "interrupted"

    def test_counts(self, ledger):
        a, b = _job(1), _job(2)
        ledger.add_job(a)
        ledger.add_job(b)
        ledger.claim_ready(1)
        ledger.finish(a.digest)
        counts = ledger.counts()
        assert counts["done"] == 1 and counts["pending"] == 1


class TestArtifacts:
    def test_content_addressing(self, ledger):
        d1 = ledger.put_artifact(b"hello", kind="test")
        d2 = ledger.put_artifact(b"hello", kind="test")
        assert d1 == d2
        assert ledger.get_artifact(d1) == b"hello"

    def test_corruption_detected(self, ledger):
        digest = ledger.put_artifact(b"payload")
        path = ledger._artifact_path(digest)
        with open(path, "wb") as fh:
            fh.write(b"tampered")
        with pytest.raises(IOError, match="corrupt"):
            ledger.get_artifact(digest)

    def test_linking(self, ledger):
        spec = _job(1)
        ledger.add_job(spec)
        digest = ledger.put_artifact(b'{"x": 1}')
        ledger.link_artifact(spec.digest, "result.json", digest)
        assert ledger.artifacts_of(spec.digest) == {"result.json": digest}
        assert ledger.result_doc(spec.digest) == {"x": 1}


class TestCheckpoints:
    def test_roundtrip_and_clear(self, ledger):
        ledger.write_checkpoint("abc", {"iteration": 5})
        assert ledger.read_checkpoint("abc") == {"iteration": 5}
        ledger.clear_checkpoint("abc")
        assert ledger.read_checkpoint("abc") is None
        ledger.clear_checkpoint("abc")  # idempotent

    def test_garbage_checkpoint_ignored(self, ledger):
        with open(ledger.checkpoint_path("abc"), "w") as fh:
            fh.write("{not json")
        assert ledger.read_checkpoint("abc") is None

    def test_no_tmp_files_leak(self, ledger):
        ledger.write_checkpoint("abc", {"i": 1})
        ledger.write_checkpoint("abc", {"i": 2})
        names = os.listdir(os.path.join(ledger.root, "checkpoints"))
        assert names == ["abc.json"]


class TestCampaigns:
    def test_campaign_linkage(self, ledger):
        spec = _job(1)
        ledger.add_job(spec)
        assert ledger.add_campaign("c1", "test", {"a": 1})
        assert not ledger.add_campaign("c1", "test", {"a": 1})
        ledger.link_campaign("c1", spec.digest, role="cell/search[0]")
        assert ledger.campaign_roles("c1") == \
            [(spec.digest, "cell/search[0]")]
        assert ledger.counts(campaign="c1")["pending"] == 1

    def test_campaign_jobs_carries_role_and_order(self, ledger):
        specs = [_job(1), _job(2, kind="select")]
        ledger.add_campaign("c1", "test", {})
        for i, spec in enumerate(specs):
            ledger.add_job(spec)
            ledger.link_campaign("c1", spec.digest,
                                 role=f"cell/stage[{i}]")
        rows = ledger.campaign_jobs("c1")
        assert [r["role"] for r in rows] == \
            ["cell/stage[0]", "cell/stage[1]"]
        # The campaign role wins over the job's own role column, and
        # the full job row rides along (state, kind, payload).
        assert [r["kind"] for r in rows] == ["search", "select"]
        assert all(r["state"] == "pending" for r in rows)

    def test_schema_version_guard(self, tmp_path):
        root = str(tmp_path / "store")
        with Ledger(root) as led:
            with led._tx() as conn:
                conn.execute("UPDATE meta SET value='999' "
                             "WHERE key='schema_version'")
        with pytest.raises(RuntimeError, match="schema version"):
            Ledger(root)


class TestPrefixResolution:
    def test_resolves_by_range_scan(self, ledger):
        specs = [_job(n) for n in range(6)]
        for spec in specs:
            ledger.add_job(spec)
        for spec in specs:
            assert ledger.resolve_prefix(spec.digest[:10]) == \
                [spec.digest]

    def test_ambiguous_prefix_returns_all_matches(self, ledger):
        a, b = _job(1), _job(2)
        ledger.add_job(a)
        ledger.add_job(b)
        shared = ""
        for x, y in zip(a.digest, b.digest):
            if x != y:
                break
            shared += x
        matches = ledger.resolve_prefix(shared)
        assert sorted(matches) == sorted([a.digest, b.digest])

    def test_no_match_is_empty(self, ledger):
        ledger.add_job(_job(1))
        assert ledger.resolve_prefix("f" * 64) == []

    def test_limit_caps_the_listing(self, ledger):
        for n in range(6):
            ledger.add_job(_job(n))
        assert len(ledger.resolve_prefix("", limit=3)) == 3


class TestMeta:
    def test_round_trip_and_overwrite(self, ledger):
        assert ledger.get_meta("catalog:latest") is None
        ledger.set_meta("catalog:latest", "aa")
        assert ledger.get_meta("catalog:latest") == "aa"
        ledger.set_meta("catalog:latest", "bb")
        assert ledger.get_meta("catalog:latest") == "bb"

    def test_schema_version_is_off_limits(self, ledger):
        with pytest.raises(ValueError, match="schema_version"):
            ledger.set_meta("schema_version", "999")


class TestTelemetry:
    def test_roundtrip(self, ledger):
        ledger.record_telemetry("abc", "attempt", {"elapsed": 1.5})
        rows = ledger.telemetry_of("abc")
        assert len(rows) == 1
        assert rows[0]["kind"] == "attempt"
        assert rows[0]["data"] == {"elapsed": 1.5}


class TestMonotonicBackoff:
    """Retry backoff decisions ride the monotonic clock; the epoch
    ``not_before`` column is display/ledger data and the cross-restart
    fallback only."""

    def test_backoff_immune_to_wall_clock_step(self, ledger):
        spec = _job(1)
        ledger.add_job(spec, max_attempts=3)
        ledger.claim_ready(1)
        assert ledger.fail(spec.digest, "boom", retry_in=0.0) == "pending"
        # Simulate a forward wall-clock step during the backoff: the
        # epoch stamp now claims the retry is an hour away.  The
        # monotonic deadline (already passed) must win.
        with ledger._tx() as conn:
            import time
            conn.execute("UPDATE jobs SET not_before=? WHERE digest=?",
                         (time.time() + 3600.0, spec.digest))
        claimed = ledger.claim_ready(1)
        assert [j["digest"] for j in claimed] == [spec.digest]

    def test_backoff_holds_even_if_wall_clock_steps_back(self, ledger):
        spec = _job(1)
        ledger.add_job(spec, max_attempts=3)
        ledger.claim_ready(1)
        ledger.fail(spec.digest, "boom", retry_in=3600.0)
        # A backward wall-clock step cannot fire the retry early: zero
        # out the epoch stamp; the monotonic deadline still gates.
        with ledger._tx() as conn:
            conn.execute("UPDATE jobs SET not_before=0 WHERE digest=?",
                         (spec.digest,))
        assert ledger.claim_ready(1) == []

    def test_restart_falls_back_to_epoch_stamp(self, ledger):
        spec = _job(1)
        ledger.add_job(spec, max_attempts=3)
        ledger.claim_ready(1)
        ledger.fail(spec.digest, "boom", retry_in=3600.0)
        # A restarted scheduler has no monotonic deadlines; the epoch
        # stamp (the best surviving information) gates the claim.
        ledger._backoff.clear()
        assert ledger.claim_ready(1) == []
        row = ledger.job(spec.digest)
        assert ledger.claim_ready(1, now=row["not_before"] + 1) != []

    def test_explicit_now_is_pure_epoch_mode(self, ledger):
        spec = _job(1)
        ledger.add_job(spec, max_attempts=3)
        ledger.claim_ready(1)
        ledger.fail(spec.digest, "boom", retry_in=3600.0)
        row = ledger.job(spec.digest)
        # Simulated time bypasses the monotonic gate entirely (the
        # scheduler tests drive claim_ready with synthetic clocks).
        assert ledger.claim_ready(1, now=row["not_before"] + 1) != []

    def test_newer_failure_elsewhere_outranks_a_stale_deadline(self, ledger):
        # A long-lived ledger (an API server's) records a short backoff;
        # another connection claims the retry and fails it with a long
        # one.  The first ledger's passed deadline no longer speaks for
        # the row, so the epoch stamp gates its claim.
        spec = _job(1)
        ledger.add_job(spec, max_attempts=5)
        ledger.claim_ready(1, owner="w1", lease=60.0)
        ledger.fail(spec.digest, "boom", retry_in=0.0, owner="w1")
        with Ledger(ledger.root) as other:
            assert other.claim_ready(1, owner="w2", lease=60.0) != []
            other.fail(spec.digest, "boom", retry_in=3600.0, owner="w2")
        assert ledger.claim_ready(1, owner="w1", lease=60.0) == []

    def test_close_does_not_flush_a_stale_deadline(self, ledger):
        # Another connection claims the job (on its own clock) and
        # fails it again; the first ledger's deadline, an hour out,
        # must not overwrite the newer stamp when it closes.
        spec = _job(1)
        ledger.add_job(spec, max_attempts=5)
        ledger.claim_ready(1, owner="w1", lease=60.0)
        ledger.fail(spec.digest, "boom", retry_in=3600.0, owner="w1")
        with Ledger(ledger.root) as other:
            now = other.job(spec.digest)["not_before"] + 1
            assert other.claim_ready(1, now=now, owner="w2",
                                     lease=60.0) != []
            other.fail(spec.digest, "boom", retry_in=0.5, owner="w2")
        stamp = ledger.job(spec.digest)["not_before"]
        ledger.close()
        with Ledger(ledger.root) as again:
            assert again.job(spec.digest)["not_before"] == stamp
