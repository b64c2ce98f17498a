"""HTTP front end: REST round trips, content-digest dedupe over the
wire, the agent lease RPCs with owner guards, checkpoint sync, and the
SSE progress feed.  No real job execution — jobs are completed through
the same RPCs a fleet agent uses."""

import http.client
import json
import os
import socket
import sqlite3
import sys
import threading
import time

import pytest

from repro.service.agent import RemoteSource
from repro.service.api import ApiServer, ServiceClient, ServiceError, \
    _AcceptingServer, _Handler
from repro.service.campaign import CampaignSpec
from repro.service.jobs import JobSpec
from repro.service.store import Ledger


@pytest.fixture
def service(tmp_path):
    root = str(tmp_path / "store")
    with ApiServer(root) as server:
        yield server, ServiceClient(server.url), root


def _value(doc=None, files=None):
    return {"doc": doc or {"answer": 42}, "files": files or {},
            "telemetry": {"elapsed_seconds": 0.5}}


class TestRest:
    def test_health(self, service):
        _server, client, _root = service
        assert client.health()["ok"] is True

    def test_keep_alive_requests_do_not_stall(self, service):
        # With Nagle's algorithm on, each response body waits for the
        # client's delayed ACK: about 40 ms per request after the first.
        server, _client, _root = service
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=5)
        try:
            start = time.perf_counter()
            for _ in range(12):
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                assert json.loads(response.read())["ok"] is True
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.2, f"12 keep-alive requests took {elapsed:.3f}s"

    def test_submit_job_dedupes(self, service):
        _server, client, _root = service
        first = client.submit_job("search", {"n": 1})
        again = client.submit_job("search", {"n": 1})
        assert first["created"] is True
        assert again["created"] is False
        assert first["digest"] == again["digest"]

    def test_submit_rejects_unknown_kind(self, service):
        _server, client, _root = service
        with pytest.raises(ServiceError) as err:
            client.submit_job("frobnicate", {"n": 1})
        assert err.value.status == 400

    def test_campaign_round_trip(self, service):
        _server, client, _root = service
        spec = CampaignSpec(kernels=(("sin", 0.0),), chains=2,
                            proposals=100, testcases=4,
                            stages=("search", "select"))
        out = client.submit_campaign(spec, name="t")
        assert out["new"] == 3 and out["reused"] == 0
        # Duplicate submission over the wire is a cheap 200.
        again = client.submit_campaign(spec, name="t")
        assert again["new"] == 0 and again["reused"] == 3
        detail = client.campaign(out["campaign"])
        assert detail["counts"]["pending"] == 3
        assert len(detail["jobs"]) == 3
        totals = client.status()["totals"]
        assert totals["pending"] == 3

    def test_job_status_and_prefix_resolution(self, service):
        _server, client, _root = service
        digest = client.submit_job("search", {"n": 1})["digest"]
        doc = client.job(digest[:12])
        assert doc["digest"] == digest
        assert doc["state"] == "pending"
        assert doc["payload"] == {"n": 1}

    def test_unknown_job_is_404(self, service):
        _server, client, _root = service
        with pytest.raises(ServiceError) as err:
            client.job("deadbeef" * 8)
        assert err.value.status == 404

    def test_unknown_endpoint_is_404(self, service):
        _server, client, _root = service
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/nonsense")
        assert err.value.status == 404

    def test_artifact_bytes_round_trip(self, service):
        _server, client, _root = service
        digest = client.submit_job("search", {"n": 1})["digest"]
        job = client.claim("w1", 1, 30.0)[0]
        client.finish(job["digest"], "w1",
                      _value(files={"rewrite.s": "addss %xmm0\n"}), 1.0)
        doc = json.loads(client.artifact(digest, "result.json"))
        assert doc == {"answer": 42}
        text = client.artifact(digest, "rewrite.s")
        assert text == b"addss %xmm0\n"
        with pytest.raises(ServiceError) as err:
            client.artifact(digest, "missing.txt")
        assert err.value.status == 404


class TestAgentRpc:
    def test_lease_heartbeat_finish(self, service):
        _server, client, _root = service
        digest = client.submit_job("search", {"n": 1})["digest"]
        jobs = client.claim("w1", 4, 30.0)
        assert [j["digest"] for j in jobs] == [digest]
        assert jobs[0]["deps"] == {}
        assert jobs[0]["checkpoint"] is None
        assert client.heartbeat("w1", [digest], 30.0) == [digest]
        assert client.heartbeat("w2", [digest], 30.0) == []
        assert client.finish(digest, "w1", _value(), 1.0) is True
        assert client.job(digest)["state"] == "done"

    def test_finish_owner_guard(self, service):
        _server, client, _root = service
        digest = client.submit_job("search", {"n": 1})["digest"]
        client.claim("w1", 1, 30.0)
        assert client.finish(digest, "intruder", _value(), 1.0) is False
        assert client.job(digest)["state"] == "running"

    def test_fail_retries_then_exhausts(self, service):
        _server, client, _root = service
        digest = client.submit_job("search", {"n": 1},
                                   max_attempts=2)["digest"]
        client.claim("w1", 1, 30.0)
        info = client.fail(digest, "w1", "boom", retry_base=0.01)
        assert info["state"] == "pending"
        assert info["attempts"] == 1
        assert info["retry_in"] == pytest.approx(0.01)
        time.sleep(0.05)
        client.claim("w1", 1, 30.0)
        info = client.fail(digest, "w1", "boom again", retry_base=0.01)
        assert info["state"] == "failed"

    def test_release_hands_back(self, service):
        _server, client, _root = service
        digest = client.submit_job("search", {"n": 1})["digest"]
        client.claim("w1", 1, 30.0)
        assert client.release(digest, "w1", note="drain") is True
        doc = client.job(digest)
        assert doc["state"] == "pending"
        assert doc["attempts"] == 0  # refunded

    def test_dep_docs_ride_the_claim(self, service):
        _server, client, _root = service
        dep = client.submit_job("search", {"n": 1})["digest"]
        job = JobSpec("select", {"n": 2}, deps=(dep,))
        client.submit_job("select", {"n": 2}, deps=[dep])
        client.claim("w1", 1, 30.0)
        client.finish(dep, "w1", _value(doc={"x": 7}), 1.0)
        jobs = client.claim("w1", 1, 30.0)
        assert jobs[0]["digest"] == job.digest
        assert jobs[0]["deps"] == {dep: {"x": 7}}

    def test_checkpoint_owner_guard(self, service):
        _server, client, _root = service
        digest = client.submit_job("search", {"n": 1})["digest"]
        client.claim("w1", 1, 30.0)
        assert client.put_checkpoint(digest, "w1",
                                     {"job_kind": "search",
                                      "state": {"i": 5}}) is True
        assert client.put_checkpoint(digest, "intruder",
                                     {"job_kind": "search",
                                      "state": {"i": 9}}) is False
        assert client.get_checkpoint(digest)["state"] == {"i": 5}

    def test_events_stream(self, service):
        server, client, _root = service
        seen = []
        ready = threading.Event()

        def listen():
            for event in client.events():
                seen.append(event)
                ready.set()

        thread = threading.Thread(target=listen, daemon=True)
        thread.start()
        time.sleep(0.2)  # let the subscription attach
        client.submit_job("search", {"n": 1})
        assert ready.wait(timeout=5.0)
        assert seen[0]["event"] == "submitted"


class TestRemoteSource:
    def test_claim_execute_finish(self, service, tmp_path):
        _server, client, _root = service
        digest = client.submit_job("search", {"n": 1})["digest"]
        source = RemoteSource(client, str(tmp_path / "scratch"))
        jobs = source.claim("w1", 1, 30.0)
        assert jobs[0]["digest"] == digest
        assert source.dependency_docs(digest) == ("ok", "", {})
        assert source.heartbeat("w1", [digest], 30.0) == {digest}
        assert source.succeed(digest, _value(), 1.0, "w1") is True
        assert client.job(digest)["state"] == "done"

    def test_checkpoints_sync_both_ways(self, service, tmp_path):
        _server, client, root = service
        digest = client.submit_job("search", {"n": 1})["digest"]
        # The server already holds a checkpoint for this job (uploaded
        # by a previous owner before it died).
        with Ledger(root) as ledger:
            ledger.write_checkpoint(digest, {"job_kind": "search",
                                             "state": {"i": 100}})
        scratch = str(tmp_path / "scratch")
        source = RemoteSource(client, scratch)
        source.claim("w1", 1, 30.0)
        # Download on claim: the worker will resume from iteration 100.
        local = source._checkpoint_path(digest)
        assert json.load(open(local))["state"] == {"i": 100}
        # The worker makes progress; the next heartbeat uploads it.
        with open(local, "w") as fh:
            json.dump({"job_kind": "search", "state": {"i": 200}}, fh)
        source.heartbeat("w1", [digest], 30.0)
        assert client.get_checkpoint(digest)["state"] == {"i": 200}

    def test_lost_lease_reported(self, service, tmp_path):
        _server, client, root = service
        digest = client.submit_job("search", {"n": 1})["digest"]
        source = RemoteSource(client, str(tmp_path / "scratch"))
        source.claim("w1", 1, 0.0)  # born expired
        with Ledger(root) as ledger:
            assert ledger.reap_expired() == [digest]
        client.claim("w2", 1, 30.0)
        assert source.heartbeat("w1", [digest], 30.0) == set()


def _seed_catalog(root):
    """Plant a finished campaign and store its catalog; returns the
    campaign id and the catalog digest."""
    from repro.catalog import build_catalog, store_catalog
    from tests.catalog.conftest import plant_campaign

    with Ledger(root) as ledger:
        cid = plant_campaign(ledger)
        digest = store_catalog(ledger, build_catalog(ledger, cid),
                               campaign=cid)
    return cid, digest


class TestCatalogApi:
    def test_no_catalog_is_404_with_guidance(self, service):
        _server, client, _root = service
        with pytest.raises(ServiceError) as err:
            client.catalog()
        assert err.value.status == 404
        assert "repro catalog build" in str(err.value)

    def test_summary_query_and_full_document(self, service):
        _server, client, root = service
        _cid, digest = _seed_catalog(root)
        out = client.catalog()
        assert out["digest"] == digest
        assert out["summary"]["kernels"]["dot"]["frontier"] == 2

        entries = client.catalog(kernel="dot", max_error=0.0,
                                 frontier=True)["entries"]
        assert [e["id"] for e in entries] == ["dot/eta=0"]

        from repro.catalog import catalog_digest, unwrap_catalog
        body, _measurements = unwrap_catalog(
            client.catalog(full=True)["document"])
        assert catalog_digest(body) == digest
        assert body["kernels"]["dot"]["target_latency"] == 100

    def test_unknown_kernel_is_404(self, service):
        _server, client, root = service
        _seed_catalog(root)
        with pytest.raises(ServiceError) as err:
            client.catalog(kernel="cos")
        assert err.value.status == 404

    def test_select_under_budget(self, service):
        _server, client, root = service
        _seed_catalog(root)
        out = client.catalog_select(4.0, workload="dot:2")
        assert out["assignment"]["dot"]["id"] == "dot/eta=10"
        assert out["latency"] == 100
        # Zero budget still resolves (the proved rewrite has error 0).
        out = client.catalog_select(0.0, workload="dot:2")
        assert out["assignment"]["dot"]["id"] == "dot/eta=0"

    def test_select_requires_budget(self, service):
        _server, client, root = service
        _seed_catalog(root)
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/catalog/select?workload=dot")
        assert err.value.status == 400

    def test_select_nan_budget_is_409(self, service):
        _server, client, root = service
        _seed_catalog(root)
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/catalog/select?budget=nan"
                                   "&workload=dot:2")
        assert err.value.status == 409
        assert "error budget must be >= 0" in err.value.message

    def test_select_bad_workload_is_409(self, service):
        _server, client, root = service
        _seed_catalog(root)
        with pytest.raises(ServiceError) as err:
            client.catalog_select(1.0, workload="cos:2")
        assert err.value.status == 409

    def test_build_over_the_wire(self, service):
        from tests.catalog.conftest import plant_campaign

        _server, client, root = service
        with Ledger(root) as ledger:
            cid = plant_campaign(ledger)
        out = client.catalog_build(cid)
        assert out["summary"]["kernels"]["dot"]["entries"] == 3
        assert client.catalog()["digest"] == out["digest"]

    def test_build_unknown_campaign_is_409(self, service):
        _server, client, _root = service
        with pytest.raises(ServiceError) as err:
            client.catalog_build("ghost")
        assert err.value.status == 409

    def test_cache_hits_on_repeat_reads(self, service):
        server, client, root = service
        _seed_catalog(root)
        client.catalog()
        client.catalog()
        client.catalog()
        assert server.catalog_cache.hits >= 2
        assert server.catalog_cache.misses == 1

    def test_cache_is_bypassed_by_new_builds(self, service):
        from tests.catalog.conftest import plant_campaign, select_doc, uf_doc

        server, client, root = service
        _seed_catalog(root)
        first = client.catalog()["digest"]
        with Ledger(root) as ledger:
            other = plant_campaign(
                ledger, cid="cat-2",
                cells=[("add", 0.0,
                        select_doc("a0", 30, target_latency=60),
                        uf_doc("a0"))])
        second = client.catalog_build(other)["digest"]
        assert second != first
        # catalog:latest moved; the cache keys on content digest, so
        # the stale entry can never be served for the new head.
        assert client.catalog()["digest"] == second

    def test_ambiguous_job_prefix_is_409_with_matches(self, service):
        _server, client, root = service
        with Ledger(root) as ledger:
            for suffix in ("aa", "bb"):
                ledger._conn.execute(
                    "INSERT INTO jobs (digest, kind, payload, state,"
                    " role, max_attempts, created_at, updated_at)"
                    " VALUES (?, 'search', '{}', 'pending', '', 3, 0, 0)",
                    ("abcdef" + suffix + "0" * 56,))
            ledger._conn.commit()
        with pytest.raises(ServiceError) as err:
            client.job("abcdef")
        assert err.value.status == 409
        assert "abcdefaa" in str(err.value)
        assert "abcdefbb" in str(err.value)


class TestSharedStore:
    """One ApiServer serves every request from the one Ledger it opened,
    one request at a time under its lock."""

    def test_select_answers_while_a_writer_holds_the_store(self, service):
        server, _client, root = service
        _seed_catalog(root)
        writer = sqlite3.connect(os.path.join(root, "ledger.sqlite3"),
                                 isolation_level=None)
        writer.execute("BEGIN IMMEDIATE")
        try:
            client = ServiceClient(server.url, timeout=2.0)
            start = time.perf_counter()
            out = client.catalog_select(4.0, workload="dot:2")
            elapsed = time.perf_counter() - start
        finally:
            writer.execute("ROLLBACK")
            writer.close()
        assert out["assignment"]["dot"]["id"] == "dot/eta=10"
        assert elapsed < 1.0, f"select took {elapsed:.3f}s"

    def test_requests_open_the_store_once(self, tmp_path, monkeypatch):
        opened = []
        init = Ledger.__init__

        def counting_init(self, root):
            opened.append(root)
            init(self, root)

        monkeypatch.setattr(Ledger, "__init__", counting_init)
        with ApiServer(str(tmp_path / "store")) as server:
            client = ServiceClient(server.url)
            digest = client.submit_job("search", {"n": 1})["digest"]
            client.status()
            assert client.job(digest[:12])["state"] == "pending"
            assert client.claim("w1", 1, 30.0)[0]["digest"] == digest
            assert client.heartbeat("w1", [digest], 30.0) == [digest]
            assert client.put_checkpoint(digest, "w1", {"i": 1}) is True
            assert client.get_checkpoint(digest) == {"i": 1}
            client.telemetry(digest, "event", {"x": 1})
            assert client.finish(digest, "w1", _value(), 1.0) is True
            assert json.loads(client.artifact(digest, "result.json")) \
                == {"answer": 42}
            with pytest.raises(ServiceError):
                client.catalog()
        assert len(opened) == 1

    def test_concurrent_selects_and_agent_rpcs(self, service):
        _server, client, root = service
        _seed_catalog(root)
        want = client.catalog_select(4.0, workload="dot:2")
        errors = []
        finished = []

        def selects():
            for _ in range(30):
                got = client.catalog_select(4.0, workload="dot:2")
                if got != want:
                    errors.append(f"select answered {got}")

        def agent(owner):
            # Each claim follows its own submit, so one job is always
            # pending; it may be the other agent's.
            for n in range(10):
                client.submit_job("search", {"owner": owner, "n": n})
                jobs = client.claim(owner, 1, 30.0)
                if len(jobs) != 1:
                    errors.append(f"{owner} claimed {jobs}")
                    continue
                digest = jobs[0]["digest"]
                if client.heartbeat(owner, [digest], 30.0) != [digest]:
                    errors.append(f"{owner} lost {digest[:12]}")
                if not client.finish(digest, owner, _value(), 0.1):
                    errors.append(f"{owner} could not finish {digest[:12]}")
                finished.append(digest)

        threads = [threading.Thread(target=selects),
                   threading.Thread(target=selects),
                   threading.Thread(target=agent, args=("w1",)),
                   threading.Thread(target=agent, args=("w2",))]
        # Switch threads often, so handlers interleave at fine grain.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(set(finished)) == 20
        with Ledger(root) as ledger:
            # 20 agent jobs and the seeded campaign's four.
            assert ledger.counts() == {"pending": 0, "running": 0,
                                       "done": 24, "failed": 0}
            for digest in finished:
                attempts = ledger.attempts_of(digest)
                assert [a["outcome"] for a in attempts] == ["ok"]
                assert "result.json" in ledger.artifacts_of(digest)

    def test_remote_backoff_survives_a_restart(self, tmp_path):
        root = str(tmp_path / "store")
        with ApiServer(root) as server:
            client = ServiceClient(server.url)
            digest = client.submit_job("search", {"n": 1})["digest"]
            client.claim("w1", 1, 30.0)
            info = client.fail(digest, "w1", "boom", retry_base=30.0)
            assert info["state"] == "pending"
            assert client.claim("w1", 1, 30.0) == []
        # stop() flushed the server's monotonic deadline into the
        # store; a new server on the same store honours it.
        with ApiServer(root) as server:
            client = ServiceClient(server.url)
            assert client.claim("w2", 1, 30.0) == []
            assert client.job(digest)["not_before"] > time.time() + 20

    def test_stop_waits_for_an_in_flight_request(self, tmp_path,
                                                  monkeypatch, capfd):
        server = ApiServer(str(tmp_path / "store")).start()
        client = ServiceClient(server.url, timeout=10.0)
        digest = client.submit_job("search", {"n": 1})["digest"]
        client.claim("w1", 1, 30.0)
        inside, proceed = threading.Event(), threading.Event()
        heartbeat = Ledger.heartbeat

        def slow_heartbeat(self, *args, **kwargs):
            inside.set()
            proceed.wait(5.0)
            return heartbeat(self, *args, **kwargs)

        monkeypatch.setattr(Ledger, "heartbeat", slow_heartbeat)
        replies = {}
        beater = threading.Thread(target=lambda: replies.update(
            kept=client.heartbeat("w1", [digest], 30.0)))
        beater.start()
        assert inside.wait(5.0)
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        time.sleep(0.2)  # stop() now waits for the handler's lock
        proceed.set()
        stopper.join(timeout=10.0)
        beater.join(timeout=10.0)
        assert not stopper.is_alive() and not beater.is_alive()
        assert replies["kept"] == [digest]
        assert "Traceback" not in capfd.readouterr().err

    def test_stop_of_a_server_that_never_started(self, tmp_path):
        # No serve loop ever ran, so there is none to wait for: stop()
        # returns at once and still closes the socket and the store.
        server = ApiServer(str(tmp_path / "store"))
        ledger = server._httpd.ledger

        def stop_within(seconds):
            stopper = threading.Thread(target=server.stop, daemon=True)
            stopper.start()
            stopper.join(timeout=seconds)
            return not stopper.is_alive()

        assert stop_within(1.0), "stop() blocked on a server never started"
        assert server._httpd.ledger is None
        assert server._httpd.socket.fileno() == -1
        with pytest.raises(sqlite3.ProgrammingError):
            ledger._conn.execute("SELECT 1")
        assert stop_within(1.0), "a second stop() blocked"
        assert server._httpd.ledger is None

    def test_request_reaching_a_stopped_store_is_503(self, tmp_path,
                                                     monkeypatch, capfd):
        server = ApiServer(str(tmp_path / "store")).start()
        client = ServiceClient(server.url, timeout=10.0)
        reading, proceed = threading.Event(), threading.Event()
        body = _Handler._body

        def gated_body(self):
            reading.set()
            proceed.wait(5.0)
            return body(self)

        monkeypatch.setattr(_Handler, "_body", gated_body)
        statuses = []

        def submit():
            try:
                client.submit_job("search", {"n": 1})
            except ServiceError as exc:
                statuses.append(exc.status)

        submitter = threading.Thread(target=submit)
        submitter.start()
        assert reading.wait(5.0)
        server.stop()
        proceed.set()
        submitter.join(timeout=10.0)
        assert not submitter.is_alive()
        assert statuses == [503]
        assert "Traceback" not in capfd.readouterr().err


def _read_to_eof(sock) -> bytes:
    reply = b""
    while True:  # until the server hangs up
        chunk = sock.recv(4096)
        if not chunk:
            return reply
        reply += chunk


def _health_on_a_fresh_connection(server) -> bytes:
    """One request on its own connection, which ends before this
    returns.  (A client that connects again before the server has hung
    up holds two connections for a moment, and may meet one more
    thread.)"""
    with socket.create_connection((server.host, server.port),
                                  timeout=5) as sock:
        sock.sendall(b"GET /v1/health HTTP/1.1\r\n"
                     b"Host: localhost\r\nConnection: close\r\n\r\n")
        return _read_to_eof(sock)


def _assert_threads_end(threads) -> None:
    deadline = time.monotonic() + 1.0
    while any(t.is_alive() for t in threads) \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(thread.is_alive() for thread in threads)


def _record_health_threads(monkeypatch) -> list:
    """The handler thread of every /v1/health request, in order."""
    threads = []
    health = _Handler._health

    def recording_health(self):
        threads.append(threading.current_thread())
        health(self)

    monkeypatch.setattr(_Handler, "_health", recording_health)
    return threads


class TestAcceptingThreads:
    """Handler threads accept their own connections: they serve one
    connection after another, one of them always waits for the next
    connection, and stop() wakes the waiting ones at once."""

    def test_fresh_connections_reuse_threads(self, service, monkeypatch):
        server, _client, _root = service
        threads = _record_health_threads(monkeypatch)
        for _ in range(50):
            reply = _health_on_a_fresh_connection(server)
            assert reply.startswith(b"HTTP/1.1 200 ")
        assert len(threads) == 50
        # One thread serves while the other waits for the next
        # connection; a thread per connection would make 50.
        assert len(set(threads)) <= 2

    def test_concurrent_clients_meet_one_spare_thread(self, service,
                                                      monkeypatch):
        # Eight clients hold at most eight connections at once, so the
        # server may start at most nine threads; a lost update to its
        # idle set would start more, or leave a connection unaccepted.
        server, _client, _root = service
        threads = _record_health_threads(monkeypatch)
        errors = []

        def client():
            for _ in range(20):
                reply = _health_on_a_fresh_connection(server)
                if not reply.startswith(b"HTTP/1.1 200 "):
                    errors.append(reply[:40])

        clients = [threading.Thread(target=client) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert errors == []
        assert len(threads) == 160
        assert len(set(threads)) <= 9

    def test_open_streams_do_not_starve_a_select(self, service):
        server, _client, root = service
        _seed_catalog(root)
        connections = []
        try:
            for _ in range(3):
                stream = http.client.HTTPConnection(server.host,
                                                    server.port, timeout=5)
                connections.append(stream)
                stream.request("GET", "/v1/events")
                assert stream.getresponse().status == 200
            idle = http.client.HTTPConnection(server.host, server.port,
                                              timeout=5)
            connections.append(idle)
            idle.request("GET", "/v1/health")
            assert json.loads(idle.getresponse().read())["ok"] is True
            client = ServiceClient(server.url, timeout=5.0)
            start = time.perf_counter()
            out = client.catalog_select(4.0, workload="dot:2")
            elapsed = time.perf_counter() - start
        finally:
            for connection in connections:
                connection.close()
        assert out["assignment"]["dot"]["id"] == "dot/eta=10"
        assert elapsed < 1.0, f"select took {elapsed:.3f}s"

    def test_stop_returns_at_once(self, tmp_path):
        before = set(threading.enumerate())
        server = ApiServer(str(tmp_path / "store")).start()
        acceptors = set(threading.enumerate()) - before
        assert acceptors
        start = time.perf_counter()
        server.stop()
        elapsed = time.perf_counter() - start
        assert elapsed < 0.25, f"stop() took {elapsed:.3f}s"
        assert not any(thread.is_alive() for thread in acceptors)

    def test_kept_alive_connection_is_hung_up_at_stop(self, tmp_path):
        # The connection waits for its next request line when stop()
        # runs: the wait ends with end-of-file, so the server hangs up
        # and no api-server thread outlives stop() by half a second,
        # although the client keeps its socket open.
        before = set(threading.enumerate())
        server = ApiServer(str(tmp_path / "store")).start()
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=5)
        try:
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            assert json.loads(response.read())["ok"] is True
            server.stop()
            time.sleep(0.5)
            left = [thread for thread in set(threading.enumerate()) - before
                    if thread.name == "api-server" and thread.is_alive()]
            conn.sock.settimeout(1.0)
            assert conn.sock.recv(4096) == b""
        finally:
            conn.close()
        assert left == []

    def test_request_in_flight_at_stop_completes(self, tmp_path,
                                                 monkeypatch):
        entered, release = threading.Event(), threading.Event()
        health = _Handler._health

        def slow_health(self):
            entered.set()
            release.wait(5.0)
            health(self)

        monkeypatch.setattr(_Handler, "_health", slow_health)
        before = set(threading.enumerate())
        server = ApiServer(str(tmp_path / "store")).start()
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            sock.sendall(b"GET /v1/health HTTP/1.1\r\n"
                         b"Host: localhost\r\n\r\n")
            assert entered.wait(5.0)
            server.stop()
            release.set()
            reply = _read_to_eof(sock)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body)["ok"] is True
        _assert_threads_end(set(threading.enumerate()) - before)

    def test_request_arriving_during_stop_is_refused(self, tmp_path,
                                                     monkeypatch):
        # A request line read as stop() runs reaches no handler: the
        # request answers 503 and the server hangs up.
        arrived, stopped = threading.Event(), threading.Event()
        started = _AcceptingServer.request_started

        def held_start(self, connection):
            arrived.set()
            stopped.wait(5.0)
            started(self, connection)

        monkeypatch.setattr(_AcceptingServer, "request_started", held_start)
        before = set(threading.enumerate())
        server = ApiServer(str(tmp_path / "store")).start()
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            sock.sendall(b"GET /v1/health HTTP/1.1\r\n"
                         b"Host: localhost\r\n\r\n")
            assert arrived.wait(5.0)
            server.stop()
            stopped.set()
            reply = _read_to_eof(sock)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 503 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body) == {"error": "the server is shutting down"}
        _assert_threads_end(set(threading.enumerate()) - before)
