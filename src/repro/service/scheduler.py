"""The scheduler: leases ready jobs, fans them out, survives anything.

Any number of schedulers may share one ledger.  Each turn a scheduler
claims runnable jobs under a worker-id'd *lease* (dependencies done,
backoff elapsed), ships them to its :class:`~repro.service.queue.JobQueue`
with their dependency result documents, heartbeats the leases it holds,
reaps leases other schedulers let expire, and folds outcomes back in:

* success  -> artifacts stored (content-addressed), job ``done``,
  checkpoint file deleted;
* error / timeout / worker crash -> bounded retry with exponential
  backoff (``retry_base * 2**(n-1)``, computed from the ledger's own
  attempt count inside the failing transaction) while attempts remain,
  ``failed`` (cascading to dependents) after that.  The job's
  checkpoint file survives, so the retry resumes mid-run.
* unreadable dependency result -> retried with the same backoff (a
  transiently missing or corrupt artifact heals); failed permanently
  only when the dependency job itself is ``failed``.

Completion calls are owner-guarded in the store, so a scheduler whose
lease expired (a long GC pause, a partitioned host) cannot clobber the
job's new owner; it observes the lost lease at its next heartbeat and
discards the stale execution.

Shutdown is two-stage: the first SIGINT/SIGTERM stops claiming and
drains in-flight jobs (they keep checkpointing); a second signal
releases the in-flight jobs back to ``pending`` and kills the workers.
A SIGKILLed scheduler needs no cooperation at all — its leases expire,
any surviving scheduler's reaper requeues the jobs, and their
checkpoints resume bit-identically elsewhere.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
import uuid
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.parallel import TaskOutcome, default_jobs
from repro.core.serialize import canonical_json

from repro.service.queue import JobQueue, LocalQueue
from repro.service.store import DEFAULT_LEASE, Ledger


def default_worker_id() -> str:
    """A cluster-unique lease owner id: host, pid, and a nonce (so a
    restarted process never inherits its predecessor's live leases)."""
    return (f"{socket.gethostname()}-{os.getpid()}-"
            f"{uuid.uuid4().hex[:8]}")


class LocalSource:
    """Scheduler-facing view of a shared-store :class:`Ledger`.

    This is the job-source seam: the scheduler only ever talks to one
    of these (or to :class:`repro.service.agent.RemoteSource`, its
    HTTP twin), so the same dispatch loop serves an in-process pool on
    the store host and a pull-worker fleet across the network.
    """

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.root = ledger.root

    def startup(self) -> int:
        return self.ledger.recover()

    def reap(self) -> List[str]:
        return self.ledger.reap_expired()

    def claim(self, owner: str, limit: int, lease: float) -> List[Dict]:
        return [
            {"digest": row["digest"], "kind": row["kind"],
             "payload": json.loads(row["payload"]),
             "attempts": row["attempts"]}
            for row in self.ledger.claim_ready(limit, owner=owner,
                                               lease=lease)
        ]

    def dependency_docs(self, digest: str
                        ) -> Tuple[str, str, Optional[Dict]]:
        """Resolve a claimed job's dependency result documents.

        Returns ``('ok', '', docs)``, ``('retry', reason, None)`` for a
        transiently unreadable result (missing or corrupt artifact
        file — it may heal, or another node may restore it), or
        ``('fatal', reason, None)`` when the dependency job itself is
        failed or unknown.
        """
        docs: Dict[str, Dict] = {}
        for dep in self.ledger.deps_of(digest):
            try:
                doc = self.ledger.result_doc(dep)
            except (OSError, ValueError):
                doc = None
            if doc is None:
                row = self.ledger.job(dep)
                if row is None:
                    return "fatal", f"unknown dependency {dep[:12]}", None
                if row["state"] == "failed":
                    return ("fatal", f"dependency failed: {dep[:12]}",
                            None)
                return ("retry",
                        f"dependency result {dep[:12]} unreadable", None)
            docs[dep] = doc
        return "ok", "", docs

    def heartbeat(self, owner: str, digests: List[str],
                  lease: float) -> Set[str]:
        return set(self.ledger.heartbeat(digests, owner, lease))

    def heartbeater(self) -> "_ThreadHeartbeat":
        """A thread-confined heartbeat channel.

        The scheduler's main loop uses this source's ledger without a
        lock, so the heartbeat thread gets its own connection to the
        same store rather than sharing it."""
        return _ThreadHeartbeat(self.root)

    def succeed(self, digest: str, value: Dict, elapsed: float,
                owner: str) -> bool:
        doc = value.get("doc", {})
        kind = "catalog" if doc.get("kind") == "catalog" else "result"
        art = self.ledger.put_artifact(
            canonical_json(doc).encode("utf-8"), kind=kind)
        self.ledger.link_artifact(digest, "result.json", art)
        if kind == "catalog":
            # A finished catalog job is the sweep's terminal stage;
            # advance the serving head so readers pick it up.
            self.ledger.set_meta("catalog:latest", art)
        for name, text in (value.get("files") or {}).items():
            file_digest = self.ledger.put_artifact(
                text.encode("utf-8"), kind="file")
            self.ledger.link_artifact(digest, name, file_digest)
        telemetry = dict(value.get("telemetry") or {})
        telemetry["scheduler_elapsed"] = elapsed
        self.ledger.record_telemetry(digest, "attempt", telemetry)
        applied = self.ledger.finish(digest, owner=owner)
        if applied:
            self.ledger.clear_checkpoint(digest)
        return applied

    def fail_attempt(self, digest: str, error: str, retry_base: float,
                     owner: str) -> Dict:
        return self.ledger.fail_attempt(digest, error, retry_base,
                                        owner=owner)

    def fail_hard(self, digest: str, error: str) -> str:
        return self.ledger.fail(digest, error, retry_in=None)

    def record_failure(self, digest: str, data: Dict) -> None:
        self.ledger.record_telemetry(digest, "failure", data)

    def release(self, digest: str, owner: str, note: str) -> bool:
        return self.ledger.release(digest, note=note, owner=owner)

    def counts(self) -> Dict[str, int]:
        return self.ledger.counts()

    def close(self) -> None:
        pass


class _ThreadHeartbeat:
    """Heartbeat channel owned by a single thread: opens its own
    :class:`Ledger` lazily (in the calling thread) and renews leases
    through it."""

    def __init__(self, root: str):
        self._root = root
        self._ledger: Optional[Ledger] = None

    def __call__(self, owner: str, digests: List[str],
                 lease: float) -> Set[str]:
        if self._ledger is None:
            self._ledger = Ledger(self._root)
        return set(self._ledger.heartbeat(digests, owner, lease))

    def close(self) -> None:
        if self._ledger is not None:
            self._ledger.close()
            self._ledger = None


class Scheduler:
    """Dispatch loop over a job source and an execution queue.

    ``ledger`` may be a :class:`Ledger` (wrapped in a
    :class:`LocalSource`) or any object with the source interface.
    ``queue`` defaults to a :class:`LocalQueue` built over the source's
    root; pass one explicitly to share it or to substitute a test
    double.  ``dispatch=False`` turns the scheduler into a pure
    coordinator — it reaps expired leases, serves events, and waits,
    while fleet agents do the executing.
    """

    def __init__(self, ledger, jobs: int = 1,
                 checkpoint_every: int = 500,
                 checkpoint_rounds: int = 4,
                 checkpoint_seconds: float = 1.0,
                 retry_base: float = 0.25,
                 task_timeout: Optional[float] = None,
                 on_event: Optional[Callable[[str, str, Dict], None]] = None,
                 queue: Optional[JobQueue] = None,
                 worker_id: Optional[str] = None,
                 lease: float = DEFAULT_LEASE,
                 dispatch: bool = True):
        if isinstance(ledger, Ledger):
            self.source = LocalSource(ledger)
            self.ledger: Optional[Ledger] = ledger
        else:
            self.source = ledger
            self.ledger = getattr(ledger, "ledger", None)
        self.jobs = jobs if jobs else default_jobs()
        self.policy = {"checkpoint_every": int(checkpoint_every),
                       "checkpoint_rounds": int(checkpoint_rounds),
                       "checkpoint_seconds": float(checkpoint_seconds)}
        self.retry_base = retry_base
        self.task_timeout = task_timeout
        self.on_event = on_event
        self.worker_id = worker_id or default_worker_id()
        self.lease = lease
        self.dispatch = dispatch
        self._queue = queue
        self._stop = False
        self._abort = False
        self._claimed: Dict[str, Dict] = {}  # digest -> claimed job
        self._lost: Set[str] = set()  # leases lost mid-flight

    # -- events -----------------------------------------------------------

    def _emit(self, digest: str, event: str, info: Dict) -> None:
        if self.on_event is not None:
            self.on_event(digest, event, info)

    # -- signals ----------------------------------------------------------

    def _on_signal(self, signum, frame) -> None:
        if self._stop:
            self._abort = True
        self._stop = True

    # -- dispatch ---------------------------------------------------------

    def _submit(self, queue: JobQueue, job: Dict) -> bool:
        """Ship one claimed job to the queue; returns whether it was
        dispatched (a dependency problem resolves the claim instead)."""
        digest = job["digest"]
        status, reason, docs = self.source.dependency_docs(digest)
        if status == "fatal":
            self.source.fail_hard(digest, reason)
            self._emit(digest, "failed", {"error": reason})
            return False
        if status == "retry":
            info = self.source.fail_attempt(digest, reason,
                                            self.retry_base,
                                            self.worker_id)
            self._emit(digest,
                       "retry" if info["state"] == "pending" else "failed",
                       {"error": reason, "attempt": info["attempts"]})
            return False
        item = {
            "digest": digest,
            "kind": job["kind"],
            "payload": job["payload"],
            "deps": docs,
            "policy": dict(self.policy),
        }
        self._lost.discard(digest)
        self._claimed[digest] = job
        self._emit(digest, "start",
                   {"kind": job["kind"], "attempt": job["attempts"]})
        queue.submit(digest, item, timeout=self.task_timeout)
        return True

    def _absorb(self, outcome: TaskOutcome) -> None:
        digest = str(outcome.key)
        self._claimed.pop(digest, None)
        if digest in self._lost:
            # The lease was reaped mid-run; the job belongs to another
            # scheduler now and this execution is void.  (Results are
            # deterministic, so nothing of value is discarded.)
            self._lost.discard(digest)
            self._emit(digest, "stale-result", {"kind": outcome.kind})
            return
        if outcome.ok:
            applied = self.source.succeed(digest, outcome.value or {},
                                          outcome.elapsed, self.worker_id)
            self._emit(digest, "done" if applied else "stale-result",
                       {"elapsed": outcome.elapsed})
            return
        info = self.source.fail_attempt(
            digest, f"{outcome.kind}: {outcome.error}", self.retry_base,
            self.worker_id)
        self.source.record_failure(
            digest,
            {"kind": outcome.kind, "error": outcome.error,
             "attempt": info["attempts"], "elapsed": outcome.elapsed})
        self._emit(digest,
                   "retry" if info["state"] == "pending" else "failed",
                   {"kind": outcome.kind, "error": outcome.error,
                    "attempt": info["attempts"]})

    def _heartbeat(self) -> None:
        digests = [d for d in self._claimed if d not in self._lost]
        if not digests:
            return
        kept = self.source.heartbeat(self.worker_id, digests, self.lease)
        for digest in digests:
            if digest not in kept:
                # Cannot cancel the in-flight execution; mark it void
                # so its eventual outcome is dropped (the store's owner
                # guard rejects it anyway).
                self._lost.add(digest)
                self._emit(digest, "lease-lost", {})

    def _heartbeat_loop(self, stop: "threading.Event") -> None:
        """Renew leases from a background thread.

        A synchronous queue executes inside ``submit()``, so the main
        loop cannot heartbeat mid-job; this thread does, over its own
        store connection, which lets inline execution hold the same
        short lease as everyone else.  A SIGKILL stops the thread with
        the process, the leases expire on schedule, and a surviving
        scheduler reaps the jobs promptly.
        """
        channel = self.source.heartbeater()
        try:
            period = max(self.lease / 3.0, 0.05)
            while not stop.wait(period):
                digests = [d for d in list(self._claimed)
                           if d not in self._lost]
                if not digests:
                    continue
                try:
                    kept = channel(self.worker_id, digests, self.lease)
                except Exception:
                    continue  # transient store contention; next beat
                for digest in digests:
                    # Re-check _claimed: the main thread may have
                    # absorbed the outcome (clearing the lease) between
                    # our snapshot and the renewal.
                    if digest not in kept and digest in self._claimed:
                        self._lost.add(digest)
        finally:
            channel.close()

    # -- the loop ---------------------------------------------------------

    def run(self, until_idle: bool = True,
            poll_interval: float = 0.25) -> Dict[str, int]:
        """Serve jobs until the ledger is idle (or drained by signals).

        Returns the final job-state counts.  ``until_idle=False`` keeps
        polling for new submissions until a signal arrives.  Idle means
        nothing pending *and* nothing running anywhere — jobs leased by
        other schedulers count, so a fleet member never exits while a
        peer still works.
        """
        requeued = self.source.startup()
        if requeued:
            self._emit("", "recovered", {"jobs": requeued})
        self._stop = False
        self._abort = False
        self._lost.clear()
        old_int = signal.signal(signal.SIGINT, self._on_signal)
        old_term = signal.signal(signal.SIGTERM, self._on_signal)
        queue = self._queue
        owns_queue = queue is None
        if owns_queue:
            queue = LocalQueue(self.source.root, jobs=self.jobs,
                               task_timeout=self.task_timeout)
        hb_thread: Optional[threading.Thread] = None
        hb_stop = threading.Event()
        if self.dispatch and queue.synchronous:
            # Inline execution blocks this thread inside submit(); keep
            # the leases alive from a sidecar thread instead.
            hb_thread = threading.Thread(target=self._heartbeat_loop,
                                         args=(hb_stop,),
                                         name="lease-heartbeat",
                                         daemon=True)
            hb_thread.start()
        heartbeat_every = max(self.lease / 3.0, 0.05)
        last_heartbeat = time.monotonic()
        try:
            while True:
                reaped = self.source.reap()
                for digest in reaped:
                    self._emit(digest, "reaped", {})
                claimed_now = 0
                if self.dispatch and not self._stop:
                    free = queue.jobs - len(self._claimed)
                    for job in self.source.claim(self.worker_id, free,
                                                 self.lease):
                        if self._submit(queue, job):
                            claimed_now += 1
                if hb_thread is None and \
                        time.monotonic() - last_heartbeat >= heartbeat_every:
                    self._heartbeat()
                    last_heartbeat = time.monotonic()
                outcomes = queue.poll(timeout=poll_interval)
                for outcome in outcomes:
                    self._absorb(outcome)
                if self._abort:
                    break
                if self._stop and not self._claimed:
                    break
                if until_idle and not self._claimed and not claimed_now:
                    counts = self.source.counts()
                    if counts["pending"] == 0 and counts["running"] == 0:
                        break
                if not self._claimed and not claimed_now and not outcomes:
                    # Nothing in flight and nothing runnable: a backoff,
                    # a peer's lease, or (with until_idle=False) a
                    # future submission is what we're waiting on —
                    # don't spin hot.
                    time.sleep(min(poll_interval, 0.05))
        finally:
            if hb_thread is not None:
                hb_stop.set()
                hb_thread.join(timeout=5.0)
            # Jobs still in flight (abort path) go back to pending; their
            # checkpoints resume under the next scheduler.
            for digest in list(self._claimed):
                if digest not in self._lost and \
                        self.source.release(digest, self.worker_id,
                                            "drain"):
                    self._emit(digest, "released", {})
            self._claimed.clear()
            self._lost.clear()
            if owns_queue:
                queue.close()
            signal.signal(signal.SIGINT, old_int)
            signal.signal(signal.SIGTERM, old_term)
        return self.source.counts()
