"""HTTP front end for the campaign service (stdlib only).

One :class:`ApiServer` exposes a store over REST+JSON so remote users
submit work and remote agents execute it without ever opening the
SQLite database:

User surface::

    POST /v1/jobs                       submit one job (dedupe -> 200)
    POST /v1/campaigns                  submit a campaign (dedupe -> 200)
    GET  /v1/jobs/{digest}              job row + artifacts + attempts
    GET  /v1/jobs/{digest}/artifacts/{name}   raw artifact bytes
    GET  /v1/campaigns/{id}             campaign jobs + states
    GET  /v1/status                     job-state counts + campaigns
    GET  /v1/events                     Server-Sent Events progress feed
    GET  /v1/health                     liveness probe

Catalog surface (read-heavy; served from an in-memory cache)::

    GET  /v1/catalog                    summary, ?full=1 document,
                                        ?kernel=&max_error=&frontier=1
                                        filtered entries
    GET  /v1/catalog/select             ?budget=&workload= assignment
    POST /v1/catalog/build              assemble a campaign's catalog

Agent surface (the HTTP twin of the scheduler's job source)::

    POST /v1/leases                     claim runnable jobs under a lease
    POST /v1/leases/heartbeat           renew leases; learn what was lost
    POST /v1/jobs/{digest}/finish       owner-guarded completion
    POST /v1/jobs/{digest}/fail         record a failing attempt (backoff)
    POST /v1/jobs/{digest}/release      hand a claimed job back
    POST /v1/jobs/{digest}/telemetry    attach observability records
    GET  /v1/jobs/{digest}/checkpoint   last uploaded checkpoint
    PUT  /v1/jobs/{digest}/checkpoint   owner-guarded checkpoint upload

Handler threads accept their own connections and are reused from one
connection to the next (:class:`_AcceptingServer`), so a request never
waits for a thread to start.  The server opens one
:class:`~repro.service.store.Ledger` when it is built and serves every
request from it, one request at a time under the server's lock;
:meth:`ApiServer.stop` closes it.  Reads run as
plain WAL reads and never take the store's write lock, and writes take
it only for their own ``BEGIN IMMEDIATE`` transactions, so the server
composes with any number of local schedulers and shared-store agents
on the same directory.  Submissions dedupe on content digest exactly
like local submissions — a duplicate ``POST`` is a cheap 200, never a
second execution.

The progress feed is an :class:`EventBus`: the serving scheduler's
``on_event`` publishes into it, the API handlers publish remote-agent
activity into it, and any number of SSE subscribers drain it (slow
subscribers drop events rather than stall the service).
"""

from __future__ import annotations

import json
import queue
import re
import socket
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Dict, Iterator, List, Optional, Set, Tuple
from urllib import error as urlerror
from urllib import parse as urlparse
from urllib import request as urlrequest

from repro.catalog import (
    CatalogError,
    build_catalog,
    catalog_summary,
    load_catalog_bytes,
    parse_workload_spec,
    query_catalog,
    resolve_catalog,
    select_for_budget,
    store_catalog,
    wrap_catalog,
)
from repro.service.campaign import CampaignSpec, campaign_cells, \
    submit_campaign
from repro.service.jobs import JOB_KINDS, JobSpec
from repro.service.scheduler import LocalSource
from repro.service.store import DEFAULT_LEASE, Ledger

API_VERSION = "v1"


class EventBus:
    """Fan-out of progress events to any number of subscribers.

    Publishing never blocks: a subscriber whose queue is full (a stalled
    SSE client) loses events, the service does not.
    """

    def __init__(self, capacity: int = 512):
        self._capacity = capacity
        self._subscribers: List["queue.Queue[Dict]"] = []
        self._lock = threading.Lock()

    def publish(self, event: Dict) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
        for sub in subscribers:
            try:
                sub.put_nowait(event)
            except queue.Full:
                pass

    def subscribe(self) -> "queue.Queue[Dict]":
        sub: "queue.Queue[Dict]" = queue.Queue(self._capacity)
        with self._lock:
            self._subscribers.append(sub)
        return sub

    def unsubscribe(self, sub: "queue.Queue[Dict]") -> None:
        with self._lock:
            if sub in self._subscribers:
                self._subscribers.remove(sub)


class _HttpFail(Exception):
    """Internal: abort the request with this status + JSON error."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


_ROUTES: List[Tuple[str, "re.Pattern[str]", str]] = []


def _route(method: str, pattern: str):
    compiled = re.compile(f"^{pattern}$")

    def register(fn):
        _ROUTES.append((method, compiled, fn.__name__))
        return fn

    return register


_DIGEST = r"(?P<digest>[0-9a-f]{6,64})"


class CatalogCache:
    """In-memory read cache of parsed catalog bodies, keyed by artifact
    digest.  Content-addressed keys make invalidation trivial — a
    rebuilt catalog has a new digest, and an unchanged rebuild hits the
    same entry.  LRU with a small capacity: a node serves a handful of
    live catalogs, not thousands, and each body is small.
    """

    def __init__(self, capacity: int = 8):
        self._capacity = capacity
        self._entries: Dict[str, Dict] = {}  # insertion order = LRU
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, digest: str) -> Optional[Dict]:
        with self._lock:
            body = self._entries.pop(digest, None)
            if body is None:
                self.misses += 1
                return None
            self._entries[digest] = body  # re-insert: most recent
            self.hits += 1
            return body

    def put(self, digest: str, body: Dict) -> None:
        with self._lock:
            self._entries.pop(digest, None)
            self._entries[digest] = body
            while len(self._entries) > self._capacity:
                self._entries.pop(next(iter(self._entries)))


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; the server class injects ``ledger``,
    ``lock`` and ``bus``."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # Headers and body leave in separate sends; with Nagle's algorithm
    # on, a keep-alive client's delayed ACK would hold each body ~40 ms.
    disable_nagle_algorithm = True

    # -- plumbing ---------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # type: ignore[attr-defined]
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def handle_one_request(self) -> None:
        # Between requests the connection waits for a request line, and
        # stop() ends that wait (see _AcceptingServer.shutdown).
        if not self.server.wait_for_request(  # type: ignore[attr-defined]
                self.connection):
            self.close_connection = True
            return
        super().handle_one_request()

    def parse_request(self) -> bool:
        self.server.request_started(  # type: ignore[attr-defined]
            self.connection)
        return super().parse_request()

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0]
        try:
            if self.server.closing:  # type: ignore[attr-defined]
                # A request line that arrived as stop() ran: refuse the
                # request and hang up, so that the thread ends too.
                self._send_json({"error": "the server is shutting down"},
                                status=503, close=True)
                return
            for route_method, pattern, name in _ROUTES:
                if route_method != method:
                    continue
                match = pattern.match(path)
                if match is None:
                    continue
                getattr(self, name)(**match.groupdict())
                return
            raise _HttpFail(404, f"no such endpoint: {method} {path}")
        except _HttpFail as exc:
            self._send_json({"error": exc.message}, status=exc.status)
        except (ValueError, KeyError) as exc:
            self._send_json({"error": str(exc)}, status=400)
        except BrokenPipeError:
            pass

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_PUT(self) -> None:
        self._dispatch("PUT")

    def _body(self) -> Dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw)
        except ValueError:
            raise _HttpFail(400, "request body is not valid JSON")
        if not isinstance(doc, dict):
            raise _HttpFail(400, "request body must be a JSON object")
        return doc

    def _send_json(self, payload: Dict, status: int = 200,
                   close: bool = False) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Also sets close_connection: no request follows this one.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_bytes(self, data: bytes, content_type: str) -> None:
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    @contextmanager
    def _ledger(self) -> Iterator[Ledger]:
        """The server's store connection, held under its lock.

        Send the response after leaving the block: a slow client must
        not hold up every other request."""
        with self.server.lock:  # type: ignore[attr-defined]
            ledger = self.server.ledger  # type: ignore[attr-defined]
            if ledger is None:
                raise _HttpFail(503, "the server is shutting down")
            yield ledger

    def _publish(self, digest: str, event: str, info: Dict) -> None:
        self.server.bus.publish(  # type: ignore[attr-defined]
            {"digest": digest, "event": event, "info": info})

    def _query(self) -> Dict[str, str]:
        """Query-string parameters (last value wins)."""
        parts = self.path.split("?", 1)
        if len(parts) == 1:
            return {}
        return {key: values[-1] for key, values in
                urlparse.parse_qs(parts[1]).items()}

    def _resolve(self, ledger: Ledger, digest: str) -> str:
        row = ledger.job(digest)
        if row is not None:
            return digest
        matches = ledger.resolve_prefix(digest)
        if len(matches) == 1:
            return matches[0]
        if matches:
            # Never guess between siblings: show the caller exactly
            # which digests collide so they can extend the prefix.
            shown = ", ".join(m[:16] for m in matches)
            raise _HttpFail(
                409, f"job prefix {digest!r} is ambiguous: matches "
                     f"{shown}")
        raise _HttpFail(404, f"no such job: {digest}")

    # -- catalog surface --------------------------------------------------

    def _catalog_body(self, ledger: Ledger,
                      campaign: Optional[str]) -> Tuple[str, Dict]:
        """Resolve + load the catalog to serve, through the cache."""
        digest = resolve_catalog(ledger, campaign)
        if digest is None:
            where = f"campaign {campaign}" if campaign else "this store"
            raise _HttpFail(
                404, f"no catalog for {where} (run `repro catalog "
                     f"build` or submit with --catalog)")
        cache: CatalogCache = \
            self.server.catalog_cache  # type: ignore[attr-defined]
        body = cache.get(digest)
        if body is None:
            try:
                body = load_catalog_bytes(ledger.get_artifact(digest))
            except FileNotFoundError:
                raise _HttpFail(
                    404, f"catalog artifact {digest[:12]} is missing")
            except (OSError, CatalogError) as exc:
                raise _HttpFail(
                    500, f"catalog artifact {digest[:12]} unreadable: "
                         f"{exc}")
            cache.put(digest, body)
        return digest, body

    @_route("GET", "/v1/catalog")
    def _catalog(self) -> None:
        params = self._query()
        with self._ledger() as ledger:
            digest, body = self._catalog_body(ledger,
                                              params.get("campaign"))
        if params.get("full"):
            self._send_json({"digest": digest,
                             "document": wrap_catalog(body)})
            return
        if "kernel" in params or "max_error" in params:
            max_error = (float(params["max_error"])
                         if "max_error" in params else None)
            try:
                entries = query_catalog(
                    body, kernel=params.get("kernel"),
                    max_error=max_error,
                    frontier_only=bool(params.get("frontier")))
            except CatalogError as exc:
                raise _HttpFail(404, str(exc))
            self._send_json({"digest": digest, "entries": entries})
            return
        self._send_json({"digest": digest,
                         "summary": catalog_summary(body)})

    @_route("GET", "/v1/catalog/select")
    def _catalog_select(self) -> None:
        params = self._query()
        if "budget" not in params:
            raise _HttpFail(400, "select needs a ?budget= error bound")
        budget = float(params["budget"])
        with self._ledger() as ledger:
            digest, body = self._catalog_body(ledger,
                                              params.get("campaign"))
        try:
            workload = parse_workload_spec(
                params.get("workload") or "aek")
            result = select_for_budget(body, workload, budget)
        except CatalogError as exc:
            raise _HttpFail(409, str(exc))
        self._send_json({"digest": digest, **result})

    @_route("POST", "/v1/catalog/build")
    def _catalog_build(self) -> None:
        body = self._body()
        cid = str(body.get("campaign") or "")
        if not cid:
            raise _HttpFail(400, "catalog build needs a campaign id")
        with self._ledger() as ledger:
            try:
                catalog = build_catalog(ledger, cid)
            except CatalogError as exc:
                raise _HttpFail(409, str(exc))
            digest = store_catalog(ledger, catalog, campaign=cid)
        self._publish("", "catalog-built",
                      {"campaign": cid, "digest": digest})
        self._send_json({"digest": digest,
                         "summary": catalog_summary(catalog)})

    # -- user surface -----------------------------------------------------

    @_route("GET", "/v1/health")
    def _health(self) -> None:
        self._send_json({"ok": True, "version": API_VERSION})

    @_route("GET", "/v1/status")
    def _status(self) -> None:
        with self._ledger() as ledger:
            campaigns = [
                {"campaign": row["id"], "name": row["name"],
                 "counts": ledger.counts(campaign=row["id"])}
                for row in ledger.campaigns()]
            payload = {"totals": ledger.counts(), "campaigns": campaigns}
        self._send_json(payload)

    @_route("POST", "/v1/jobs")
    def _submit_job(self) -> None:
        body = self._body()
        kind = body.get("kind")
        payload = body.get("payload")
        if kind not in JOB_KINDS:
            raise _HttpFail(400, f"unknown job kind {kind!r} "
                                 f"(known: {JOB_KINDS})")
        if not isinstance(payload, dict):
            raise _HttpFail(400, "payload must be a JSON object")
        spec = JobSpec(kind, payload,
                       deps=tuple(body.get("deps") or ()),
                       role=str(body.get("role") or ""))
        with self._ledger() as ledger:
            created = ledger.add_job(
                spec, max_attempts=int(body.get("max_attempts") or 3))
            state = ledger.job(spec.digest)["state"]
        if created:
            self._publish(spec.digest, "submitted", {"kind": kind})
        self._send_json({"digest": spec.digest, "created": created,
                         "state": state})

    @_route("POST", "/v1/campaigns")
    def _submit_campaign(self) -> None:
        body = self._body()
        try:
            spec = CampaignSpec.from_dict(body["spec"])
        except KeyError as exc:
            raise _HttpFail(400, f"campaign spec missing field {exc}")
        name = str(body.get("name") or "campaign")
        with self._ledger() as ledger:
            cid, counts = submit_campaign(
                ledger, spec, name=name,
                max_attempts=int(body.get("max_attempts") or 3))
            jobs = [{"digest": digest, "role": role}
                    for digest, role in ledger.campaign_roles(cid)]
        self._publish("", "campaign-submitted",
                      {"campaign": cid, **counts})
        self._send_json({"campaign": cid, "name": name, **counts,
                         "jobs": jobs})

    @_route("GET", f"/v1/jobs/{_DIGEST}")
    def _job(self, digest: str) -> None:
        with self._ledger() as ledger:
            digest = self._resolve(ledger, digest)
            row = ledger.job(digest)
            payload = {
                **row,
                "payload": json.loads(row["payload"]),
                "deps": ledger.deps_of(digest),
                "artifacts": ledger.artifacts_of(digest),
                "attempts_log": ledger.attempts_of(digest),
            }
        self._send_json(payload)

    @_route("GET", f"/v1/jobs/{_DIGEST}/artifacts/(?P<name>[^/]+)")
    def _artifact(self, digest: str, name: str) -> None:
        with self._ledger() as ledger:
            digest = self._resolve(ledger, digest)
            named = ledger.artifacts_of(digest)
            if name not in named:
                raise _HttpFail(
                    404, f"job {digest[:12]} has no artifact {name!r} "
                         f"(has: {', '.join(sorted(named)) or 'none'})")
            data = ledger.get_artifact(named[name])
        content_type = ("application/json" if name.endswith(".json")
                        else "text/plain; charset=utf-8")
        self._send_bytes(data, content_type)

    @_route("GET", "/v1/campaigns/(?P<cid>[0-9a-f]{4,16})")
    def _campaign(self, cid: str) -> None:
        with self._ledger() as ledger:
            row = ledger.campaign(cid)
            if row is None:
                raise _HttpFail(404, f"no such campaign: {cid}")
            jobs = [{"digest": digest, "role": role,
                     **{k: ledger.job(digest)[k]
                        for k in ("kind", "state", "attempts", "error")}}
                    for digest, role in ledger.campaign_roles(cid)]
            payload = {"campaign": cid, "name": row["name"],
                       "spec": json.loads(row["spec"]),
                       "counts": ledger.counts(campaign=cid),
                       "jobs": jobs,
                       "cells": {
                           cell: {stage: job["state"]
                                  for stage, job in stages.items()}
                           for cell, stages in
                           campaign_cells(ledger, cid).items()}}
        self._send_json(payload)

    @_route("GET", "/v1/events")
    def _events(self) -> None:
        bus: EventBus = self.server.bus  # type: ignore[attr-defined]
        sub = bus.subscribe()
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        try:
            while True:
                try:
                    event = sub.get(timeout=10.0)
                except queue.Empty:
                    if self.server.closing:  # type: ignore[attr-defined]
                        break
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                data = json.dumps(event, sort_keys=True)
                self.wfile.write(f"data: {data}\n\n".encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        finally:
            bus.unsubscribe(sub)
        # SSE owns the socket until the client hangs up.
        self.close_connection = True

    # -- agent surface ----------------------------------------------------

    @_route("POST", "/v1/leases")
    def _claim(self) -> None:
        body = self._body()
        owner = str(body.get("owner") or "")
        if not owner:
            raise _HttpFail(400, "lease claims need an owner id")
        limit = int(body["limit"]) if "limit" in body else 1
        lease = (float(body["lease"]) if "lease" in body
                 else DEFAULT_LEASE)
        granted: List[Dict] = []
        with self._ledger() as ledger:
            source = LocalSource(ledger)
            for job in source.claim(owner, limit, lease):
                digest = job["digest"]
                # Resolve dependency documents server-side so agents
                # receive only dispatchable jobs (and the triage of a
                # missing/corrupt dep artifact stays in one place).
                status, reason, docs = source.dependency_docs(digest)
                if status == "fatal":
                    source.fail_hard(digest, reason)
                    self._publish(digest, "failed", {"error": reason})
                    continue
                if status == "retry":
                    info = source.fail_attempt(
                        digest, reason,
                        float(body.get("retry_base") or 0.25), owner)
                    self._publish(
                        digest,
                        "retry" if info["state"] == "pending" else "failed",
                        {"error": reason, "attempt": info["attempts"]})
                    continue
                job["deps"] = docs
                job["checkpoint"] = ledger.read_checkpoint(digest)
                granted.append(job)
                self._publish(digest, "leased",
                              {"owner": owner, "kind": job["kind"],
                               "attempt": job["attempts"]})
        self._send_json({"jobs": granted, "lease": lease})

    @_route("POST", "/v1/leases/heartbeat")
    def _heartbeat(self) -> None:
        body = self._body()
        with self._ledger() as ledger:
            kept = ledger.heartbeat(
                [str(d) for d in body.get("digests") or []],
                str(body.get("owner") or ""),
                float(body.get("lease") or DEFAULT_LEASE))
        self._send_json({"kept": sorted(kept)})

    @_route("POST", f"/v1/jobs/{_DIGEST}/finish")
    def _finish(self, digest: str) -> None:
        body = self._body()
        owner = str(body.get("owner") or "")
        value = body.get("value") or {}
        with self._ledger() as ledger:
            digest = self._resolve(ledger, digest)
            applied = LocalSource(ledger).succeed(
                digest, value, float(body.get("elapsed") or 0.0), owner)
        self._publish(digest, "done" if applied else "stale-result",
                      {"owner": owner})
        self._send_json({"applied": applied})

    @_route("POST", f"/v1/jobs/{_DIGEST}/fail")
    def _fail(self, digest: str) -> None:
        body = self._body()
        owner = str(body.get("owner") or "")
        error = str(body.get("error") or "unknown error")
        with self._ledger() as ledger:
            digest = self._resolve(ledger, digest)
            source = LocalSource(ledger)
            if body.get("hard"):
                state = source.fail_hard(digest, error)
                info = {"state": state, "attempts": 0, "retry_in": None}
            else:
                info = source.fail_attempt(
                    digest, error, float(body.get("retry_base") or 0.25),
                    owner)
        self._publish(digest,
                      "retry" if info["state"] == "pending" else "failed",
                      {"error": error, "attempt": info["attempts"],
                       "owner": owner})
        self._send_json(info)

    @_route("POST", f"/v1/jobs/{_DIGEST}/release")
    def _release(self, digest: str) -> None:
        body = self._body()
        with self._ledger() as ledger:
            digest = self._resolve(ledger, digest)
            applied = ledger.release(
                digest, note=str(body.get("note") or "released"),
                owner=str(body.get("owner") or "") or None)
        if applied:
            self._publish(digest, "released",
                          {"owner": str(body.get("owner") or "")})
        self._send_json({"applied": applied})

    @_route("POST", f"/v1/jobs/{_DIGEST}/telemetry")
    def _telemetry(self, digest: str) -> None:
        body = self._body()
        with self._ledger() as ledger:
            digest = self._resolve(ledger, digest)
            ledger.record_telemetry(digest,
                                    str(body.get("kind") or "event"),
                                    body.get("data") or {})
        self._send_json({"ok": True})

    @_route("GET", f"/v1/jobs/{_DIGEST}/checkpoint")
    def _get_checkpoint(self, digest: str) -> None:
        with self._ledger() as ledger:
            digest = self._resolve(ledger, digest)
            doc = ledger.read_checkpoint(digest)
        if doc is None:
            raise _HttpFail(404, f"job {digest[:12]} has no checkpoint")
        self._send_json({"checkpoint": doc})

    @_route("PUT", f"/v1/jobs/{_DIGEST}/checkpoint")
    def _put_checkpoint(self, digest: str) -> None:
        body = self._body()
        owner = str(body.get("owner") or "")
        doc = body.get("checkpoint")
        if not isinstance(doc, dict):
            raise _HttpFail(400, "checkpoint must be a JSON object")
        with self._ledger() as ledger:
            digest = self._resolve(ledger, digest)
            row = ledger.job(digest)
            # Owner guard: a reaped agent must not clobber the new
            # owner's resume state.
            applied = (row["state"] == "running"
                       and row["lease_owner"] == owner)
            if applied:
                ledger.write_checkpoint(digest, doc)
        self._send_json({"applied": applied}, status=200 if applied else 409)


class _AcceptingServer(HTTPServer):
    """An HTTP server whose handler threads accept their own connections.

    Each thread loops: ``accept()`` a connection, serve all of its
    keep-alive requests, ``accept()`` again.  A thread that takes a
    connection while no other thread waits to accept first starts one
    more, so one thread always waits for the next connection (an SSE
    stream or a slow client delays no one) and the threads number at
    most the peak of concurrent connections plus one.  Reused threads
    save starting one per connection, about half of a loopback round
    trip.

    :meth:`shutdown` marks the server closing and shuts the listening
    socket down, which on Linux wakes every blocked ``accept()`` with
    ``EINVAL``; it returns once the waiting threads have ended.  It also
    shuts down the read side of every kept-alive connection that waits
    for its next request line, so that the wait ends with end-of-file
    and the connection's thread hangs up and ends.  A request already
    in flight completes, and its thread ends after it.
    """

    def __init__(self, address, handler) -> None:
        super().__init__(address, handler)
        self._lock = threading.Lock()
        # Threads not serving a connection: in accept(), or about to be.
        self._idle: Set[threading.Thread] = set()
        # Connections waiting for their next request line.
        self._waiting: Set[socket.socket] = set()
        self._closed = threading.Event()

    @property
    def closing(self) -> bool:
        return self._closed.is_set()

    def start(self) -> None:
        """Start the first accepting thread and return."""
        with self._lock:
            self._start_thread()

    def serve_forever(self) -> None:  # type: ignore[override]
        """Start accepting, then wait for :meth:`shutdown`."""
        self.start()
        self._closed.wait()

    def shutdown(self) -> None:
        with self._lock:
            if self._closed.is_set():
                return
            self._closed.set()
            idle = list(self._idle)
            waiting = list(self._waiting)
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:  # platforms that refuse it on a listening socket
            pass
        for connection in waiting:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:  # the client hung up first
                pass
        for thread in idle:
            thread.join(timeout=1.0)

    def wait_for_request(self, connection: socket.socket) -> bool:
        """Mark ``connection`` as waiting for its next request line;
        False once the server is closing (hang up instead)."""
        with self._lock:
            if self._closed.is_set():
                return False
            self._waiting.add(connection)
            return True

    def request_started(self, connection: socket.socket) -> None:
        """``connection``'s request line has arrived."""
        with self._lock:
            self._waiting.discard(connection)

    def _start_thread(self) -> None:
        # The caller holds self._lock.
        thread = threading.Thread(target=self._accept_loop,
                                  name="api-server", daemon=True)
        self._idle.add(thread)
        thread.start()

    def _accept_loop(self) -> None:
        me = threading.current_thread()
        while not self._closed.is_set():
            try:
                request, address = self.get_request()
            except OSError:
                # The socket was shut down, or a connection was reset
                # before it was accepted.
                continue
            with self._lock:
                self._idle.discard(me)
                if not self._idle and not self._closed.is_set():
                    self._start_thread()
            try:
                self.finish_request(request, address)
            except Exception:
                self.handle_error(request, address)
            finally:
                # Idle again before hanging up: a client that waits for
                # the hang-up to connect again finds this thread, and
                # does not make a third one start.
                with self._lock:
                    self._waiting.discard(request)
                    self._idle.add(me)
                self.shutdown_request(request)


class ApiServer:
    """Threaded HTTP server over one store directory.

    ``port=0`` picks a free port (see :attr:`port` after construction).
    Run with :meth:`start` (returns at once) or :meth:`serve_forever`.
    The store is opened here, once, and closed by :meth:`stop`.
    """

    def __init__(self, root: str, host: str = "127.0.0.1", port: int = 0,
                 bus: Optional[EventBus] = None, verbose: bool = False):
        self.bus = bus if bus is not None else EventBus()
        self.catalog_cache = CatalogCache()
        self._httpd = _AcceptingServer((host, port), _Handler)
        try:
            ledger = Ledger(root)
        except BaseException:
            self._httpd.server_close()
            raise
        self._httpd.ledger = ledger  # type: ignore[attr-defined]
        self._httpd.lock = threading.Lock()  # type: ignore[attr-defined]
        self._httpd.bus = self.bus  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.catalog_cache = \
            self.catalog_cache  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ApiServer":
        self._httpd.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Stop accepting, then close the socket and the store.  Returns
        without waiting for open connections: a kept-alive connection
        waiting for its next request is hung up, and a request in
        flight completes (one that had not reached its handler answers
        503).  Works on a server that never started; a second call does
        nothing."""
        self._httpd.shutdown()
        self._httpd.server_close()
        # Under the lock no handler is mid-transaction; handlers that
        # reach it later answer 503.  close() hands this process's
        # retry deadlines to the store's ``not_before`` column.
        with self._httpd.lock:  # type: ignore[attr-defined]
            if self._httpd.ledger is not None:  # type: ignore[attr-defined]
                self._httpd.ledger.close()  # type: ignore[attr-defined]
                self._httpd.ledger = None  # type: ignore[attr-defined]

    def __enter__(self) -> "ApiServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# Client


class ServiceError(RuntimeError):
    """An HTTP request the service rejected (4xx/5xx with JSON error)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Minimal urllib client for :class:`ApiServer`.

    Mirrors the local CLI verbs (submit/status/artifacts) plus the
    agent RPCs; everything is plain JSON over HTTP, no sessions, no
    state beyond the base URL.
    """

    def __init__(self, url: str, timeout: float = 30.0):
        self.url = url.rstrip("/")
        self.timeout = timeout

    # -- plumbing ---------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[Dict] = None, raw: bool = False):
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urlrequest.Request(f"{self.url}{path}", data=data,
                                 headers=headers, method=method)
        try:
            with urlrequest.urlopen(req, timeout=self.timeout) as resp:
                payload = resp.read()
        except urlerror.HTTPError as exc:
            try:
                message = json.loads(exc.read()).get("error", str(exc))
            except (ValueError, AttributeError):
                message = str(exc)
            raise ServiceError(exc.code, message) from None
        except urlerror.URLError as exc:
            raise ServiceError(0, f"service unreachable: {exc.reason}") \
                from None
        if raw:
            return payload
        return json.loads(payload) if payload else {}

    # -- user surface -----------------------------------------------------

    def health(self) -> Dict:
        return self._request("GET", "/v1/health")

    def status(self) -> Dict:
        return self._request("GET", "/v1/status")

    def submit_job(self, kind: str, payload: Dict, deps=(),
                   role: str = "", max_attempts: int = 3) -> Dict:
        return self._request("POST", "/v1/jobs", {
            "kind": kind, "payload": payload, "deps": list(deps),
            "role": role, "max_attempts": max_attempts})

    def submit_campaign(self, spec, name: str = "campaign",
                        max_attempts: int = 3) -> Dict:
        doc = spec.to_dict() if isinstance(spec, CampaignSpec) else spec
        return self._request("POST", "/v1/campaigns", {
            "spec": doc, "name": name, "max_attempts": max_attempts})

    def job(self, digest: str) -> Dict:
        return self._request("GET", f"/v1/jobs/{digest}")

    def campaign(self, cid: str) -> Dict:
        return self._request("GET", f"/v1/campaigns/{cid}")

    def artifact(self, digest: str, name: str) -> bytes:
        return self._request("GET", f"/v1/jobs/{digest}/artifacts/{name}",
                             raw=True)

    # -- catalog surface --------------------------------------------------

    def _catalog_path(self, path: str, params: Dict) -> str:
        # None/"" means "not given"; flags are included only when set
        # by the callers below (the server reads bare truthiness).
        filtered = {k: str(v) for k, v in params.items()
                    if v is not None and v != ""}
        if filtered:
            path += "?" + urlparse.urlencode(filtered)
        return path

    def catalog(self, campaign: Optional[str] = None,
                kernel: Optional[str] = None,
                max_error: Optional[float] = None,
                frontier: bool = False, full: bool = False) -> Dict:
        params: Dict = {"campaign": campaign, "kernel": kernel,
                        "max_error": max_error}
        if frontier:
            params["frontier"] = 1
        if full:
            params["full"] = 1
        return self._request(
            "GET", self._catalog_path("/v1/catalog", params))

    def catalog_select(self, budget: float, workload: str = "aek",
                       campaign: Optional[str] = None) -> Dict:
        return self._request(
            "GET", self._catalog_path("/v1/catalog/select", {
                "budget": budget, "workload": workload,
                "campaign": campaign}))

    def catalog_build(self, campaign: str) -> Dict:
        return self._request("POST", "/v1/catalog/build",
                             {"campaign": campaign})

    def events(self) -> Iterator[Dict]:
        """Yield progress events from the SSE feed until the server
        closes the stream (blocking; run it in its own thread)."""
        req = urlrequest.Request(f"{self.url}/v1/events")
        with urlrequest.urlopen(req, timeout=None) as resp:
            for line in resp:
                line = line.strip()
                if line.startswith(b"data: "):
                    yield json.loads(line[len(b"data: "):])

    # -- agent surface ----------------------------------------------------

    def claim(self, owner: str, limit: int, lease: float,
              retry_base: float = 0.25) -> List[Dict]:
        return self._request("POST", "/v1/leases", {
            "owner": owner, "limit": limit, "lease": lease,
            "retry_base": retry_base})["jobs"]

    def heartbeat(self, owner: str, digests: List[str],
                  lease: float) -> List[str]:
        return self._request("POST", "/v1/leases/heartbeat", {
            "owner": owner, "digests": list(digests),
            "lease": lease})["kept"]

    def finish(self, digest: str, owner: str, value: Dict,
               elapsed: float) -> bool:
        return self._request("POST", f"/v1/jobs/{digest}/finish", {
            "owner": owner, "value": value,
            "elapsed": elapsed})["applied"]

    def fail(self, digest: str, owner: str, error: str,
             retry_base: float = 0.25, hard: bool = False) -> Dict:
        return self._request("POST", f"/v1/jobs/{digest}/fail", {
            "owner": owner, "error": error, "retry_base": retry_base,
            "hard": hard})

    def release(self, digest: str, owner: str,
                note: str = "released") -> bool:
        return self._request("POST", f"/v1/jobs/{digest}/release", {
            "owner": owner, "note": note})["applied"]

    def telemetry(self, digest: str, kind: str, data: Dict) -> None:
        self._request("POST", f"/v1/jobs/{digest}/telemetry",
                      {"kind": kind, "data": data})

    def get_checkpoint(self, digest: str) -> Optional[Dict]:
        try:
            return self._request(
                "GET", f"/v1/jobs/{digest}/checkpoint")["checkpoint"]
        except ServiceError as exc:
            if exc.status == 404:
                return None
            raise

    def put_checkpoint(self, digest: str, owner: str, doc: Dict) -> bool:
        try:
            return self._request("PUT", f"/v1/jobs/{digest}/checkpoint", {
                "owner": owner, "checkpoint": doc})["applied"]
        except ServiceError as exc:
            if exc.status == 409:
                return False
            raise
