"""Crash-safe ledger and content-addressed artifact store.

One SQLite database (WAL mode) records jobs, their dependency edges,
attempts, telemetry snapshots, and campaign membership; artifacts live
next to it as content-addressed files (``artifacts/ab/abcdef...``)
written atomically (tmp + rename), so a SIGKILL at any instant leaves
either the old state or the new state, never a torn one.

Any number of schedulers and fleet agents may share one ledger.  Every
mutation runs in its own ``BEGIN IMMEDIATE`` transaction (WAL readers
never block, writers serialize with a busy timeout), and *claims are
leases*: :meth:`Ledger.claim_ready` grants a worker-id'd lease with an
expiry, the owner extends it with :meth:`Ledger.heartbeat` while the
job runs, and :meth:`Ledger.reap_expired` requeues any job whose owner
stopped heartbeating — attempt refunded, checkpoint intact — exactly
like the graceful-drain path.  Completion calls (:meth:`finish`,
:meth:`fail`, :meth:`release`) are owner-guarded, so a worker whose
lease was reaped and re-granted elsewhere cannot clobber the new
owner's run.  Workers never open the database; they communicate over
pipes or HTTP and write only their own per-job checkpoint files.

Job lifecycle::

    pending --claim (lease granted)--> running --ok--> done
       ^                                  |
       |                                  +--error, attempts left--> pending (backoff)
       |                                  +--error, attempts exhausted--> failed
       +--lease expired / drain / recover() (attempt refunded,
          recorded as 'interrupted')

A job whose dependency fails is failed eagerly (``upstream failed``)
so campaigns always terminate.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
import uuid
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.serialize import canonical_json

from repro.service.jobs import JobSpec

LEDGER_SCHEMA_VERSION = 2

# Default lease duration granted per claim.  Owners heartbeat at a
# fraction of this; a scheduler that dies stops heartbeating and its
# jobs are requeued once the lease runs out.  Leases compare on the
# epoch clock because they must be meaningful across hosts.
DEFAULT_LEASE = 15.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    digest TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    payload TEXT NOT NULL,
    role TEXT NOT NULL DEFAULT '',
    state TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    not_before REAL NOT NULL DEFAULT 0,
    lease_owner TEXT NOT NULL DEFAULT '',
    lease_expires REAL NOT NULL DEFAULT 0,
    error TEXT,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state);
CREATE TABLE IF NOT EXISTS job_deps (
    job TEXT NOT NULL,
    dep TEXT NOT NULL,
    PRIMARY KEY (job, dep)
);
CREATE INDEX IF NOT EXISTS job_deps_dep ON job_deps (dep);
CREATE TABLE IF NOT EXISTS campaigns (
    id TEXT PRIMARY KEY,
    name TEXT NOT NULL,
    spec TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS campaign_jobs (
    campaign TEXT NOT NULL,
    job TEXT NOT NULL,
    role TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (campaign, job)
);
CREATE TABLE IF NOT EXISTS attempts (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    job TEXT NOT NULL,
    number INTEGER NOT NULL,
    started_at REAL NOT NULL,
    finished_at REAL,
    outcome TEXT,
    error TEXT
);
CREATE INDEX IF NOT EXISTS attempts_job ON attempts (job);
CREATE TABLE IF NOT EXISTS telemetry (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    job TEXT NOT NULL,
    at REAL NOT NULL,
    kind TEXT NOT NULL,
    data TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS artifacts (
    digest TEXT PRIMARY KEY,
    kind TEXT NOT NULL DEFAULT '',
    size INTEGER NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS job_artifacts (
    job TEXT NOT NULL,
    name TEXT NOT NULL,
    artifact TEXT NOT NULL,
    PRIMARY KEY (job, name)
);
"""

# Job states a job can rest in between scheduler turns.
JOB_STATES = ("pending", "running", "done", "failed")


def _atomic_write(path: str, data: bytes) -> None:
    """Write via tmp + rename so readers never see a torn file."""
    tmp = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class Ledger:
    """The campaign service's durable state, rooted at one directory."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        os.makedirs(os.path.join(self.root, "artifacts"), exist_ok=True)
        os.makedirs(os.path.join(self.root, "checkpoints"), exist_ok=True)
        self.db_path = os.path.join(self.root, "ledger.sqlite3")
        # Retry backoff deadlines on the monotonic clock, by job digest.
        # The epoch ``not_before`` column is kept for display, ledger
        # records, and the cross-process fallback — but elapsed-time
        # decisions ("has the backoff passed?") this process makes use
        # these, so a wall clock step (NTP, suspend/resume) can neither
        # stall a retry indefinitely nor fire it early.  On handoff
        # (release or close) the *remaining* monotonic delay is written
        # back into ``not_before``, so the next claimant — another
        # scheduler sharing the ledger, or a restart — honors the same
        # backoff even if the wall clock stepped in between.  Each
        # deadline carries the job's attempt count at the failure: once
        # another connection claims the job the count moves on, and
        # the deadline no longer speaks for the row.
        self._backoff: Dict[str, Tuple[float, int]] = {}
        # Any thread may use the connection, one at a time: the API
        # server serializes its request threads on one lock.
        self._conn = sqlite3.connect(self.db_path, timeout=30.0,
                                     isolation_level=None,
                                     check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        # executescript commits on its own; keep it outside _tx.
        self._conn.executescript(_SCHEMA)
        with self._tx():
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(LEDGER_SCHEMA_VERSION)))
            elif int(row["value"]) == 1:
                # v1 -> v2: single-writer claims become leases.  Old
                # rows get the empty owner / epoch-zero expiry, which
                # reads as "expired", so recovery requeues them just as
                # v1's recover() would have.
                self._conn.execute(
                    "ALTER TABLE jobs ADD COLUMN lease_owner TEXT "
                    "NOT NULL DEFAULT ''")
                self._conn.execute(
                    "ALTER TABLE jobs ADD COLUMN lease_expires REAL "
                    "NOT NULL DEFAULT 0")
                self._conn.execute(
                    "UPDATE meta SET value=? WHERE key='schema_version'",
                    (str(LEDGER_SCHEMA_VERSION),))
            elif int(row["value"]) != LEDGER_SCHEMA_VERSION:
                raise RuntimeError(
                    f"ledger at {self.db_path} has schema version "
                    f"{row['value']}, this build reads "
                    f"{LEDGER_SCHEMA_VERSION}")

    def close(self) -> None:
        # Backoff deadlines live on this process's monotonic clock;
        # hand the remaining delays to whoever opens the ledger next.
        if self._backoff:
            try:
                with self._tx() as conn:
                    now = time.time()
                    for digest in list(self._backoff):
                        self._flush_backoff(conn, digest, now)
            except sqlite3.Error:
                pass
        self._conn.close()

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @contextmanager
    def _tx(self):
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield self._conn
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        else:
            self._conn.execute("COMMIT")

    # -- jobs -------------------------------------------------------------

    def add_job(self, spec: JobSpec, max_attempts: int = 3) -> bool:
        """Record a job; returns False when its digest already exists.

        Dedupe is the point: a duplicate submission (same kind +
        payload) is a no-op regardless of the state the original is in.
        """
        digest = spec.digest
        now = time.time()
        with self._tx() as conn:
            cur = conn.execute(
                "INSERT OR IGNORE INTO jobs (digest, kind, payload, role, "
                "state, max_attempts, created_at, updated_at) "
                "VALUES (?, ?, ?, ?, 'pending', ?, ?, ?)",
                (digest, spec.kind, canonical_json(spec.payload), spec.role,
                 max_attempts, now, now))
            created = cur.rowcount > 0
            if created:
                for dep in spec.deps:
                    conn.execute(
                        "INSERT OR IGNORE INTO job_deps (job, dep) "
                        "VALUES (?, ?)", (digest, dep))
        return created

    def job(self, digest: str) -> Optional[Dict]:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE digest=?", (digest,)).fetchone()
        return dict(row) if row else None

    def deps_of(self, digest: str) -> List[str]:
        rows = self._conn.execute(
            "SELECT dep FROM job_deps WHERE job=? ORDER BY dep",
            (digest,)).fetchall()
        return [r["dep"] for r in rows]

    def resolve_prefix(self, prefix: str, limit: int = 8) -> List[str]:
        """Job digests starting with ``prefix``, at most ``limit``.

        Digests are lowercase hex, so the half-open range
        ``[prefix, prefix + 'g')`` captures exactly the prefix matches
        and rides the primary-key index — no table scan, no LIKE.
        Callers decide what multiple matches mean; the CLI and API
        treat >1 as an ambiguity error and show this list.
        """
        rows = self._conn.execute(
            "SELECT digest FROM jobs WHERE digest >= ? AND digest < ? "
            "ORDER BY digest LIMIT ?",
            (prefix, prefix + "g", limit)).fetchall()
        return [r["digest"] for r in rows]

    def jobs(self, state: Optional[str] = None,
             campaign: Optional[str] = None) -> List[Dict]:
        query = "SELECT jobs.* FROM jobs"
        args: List = []
        clauses = []
        if campaign is not None:
            query += (" JOIN campaign_jobs ON campaign_jobs.job = "
                      "jobs.digest")
            clauses.append("campaign_jobs.campaign = ?")
            args.append(campaign)
        if state is not None:
            clauses.append("jobs.state = ?")
            args.append(state)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY jobs.created_at, jobs.digest"
        return [dict(r) for r in self._conn.execute(query, args)]

    def counts(self, campaign: Optional[str] = None) -> Dict[str, int]:
        out = {state: 0 for state in JOB_STATES}
        for row in self.jobs(campaign=campaign):
            out[row["state"]] = out.get(row["state"], 0) + 1
        return out

    def claim_ready(self, limit: int, now: Optional[float] = None,
                    owner: str = "", lease: float = 0.0) -> List[Dict]:
        """Atomically lease up to ``limit`` runnable jobs to ``owner``.

        Runnable: ``pending``, past its backoff time, with every
        dependency ``done``.  Each claimed job moves to ``running``
        with ``lease_owner=owner`` and ``lease_expires=now+lease``, and
        an attempt row is opened.  The owner must :meth:`heartbeat`
        before the lease runs out or :meth:`reap_expired` will requeue
        the job.  A claim with ``lease=0`` (the legacy single-writer
        mode) is born expired: it is recoverable by anyone, which is
        exactly v1's semantics.

        Backoff gating: jobs whose retry this process scheduled are
        gated by their monotonic deadline (immune to wall-clock steps);
        jobs inherited from another process fall back to the epoch
        ``not_before`` stamp.  Passing ``now`` explicitly selects pure
        epoch comparison — the simulated-time mode the scheduler tests
        use.
        """
        if limit <= 0:
            return []
        epoch_only = now is not None
        now = time.time() if now is None else now
        expires = now + lease if lease else 0.0
        claimed: List[Dict] = []
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT * FROM jobs WHERE state='pending' "
                "AND NOT EXISTS (SELECT 1 FROM job_deps JOIN jobs AS d ON "
                "d.digest = job_deps.dep WHERE job_deps.job = jobs.digest "
                "AND d.state != 'done') "
                "ORDER BY created_at, digest").fetchall()
            ready = []
            for row in rows:
                backoff = self._backoff.get(row["digest"])
                if (not epoch_only and backoff is not None
                        and backoff[1] == row["attempts"]):
                    if time.monotonic() < backoff[0]:
                        continue
                elif row["not_before"] > now:
                    continue
                ready.append(row)
                if len(ready) >= limit:
                    break
            for row in ready:
                self._backoff.pop(row["digest"], None)
                conn.execute(
                    "UPDATE jobs SET state='running', attempts=attempts+1, "
                    "lease_owner=?, lease_expires=?, updated_at=? "
                    "WHERE digest=?",
                    (owner, expires, now, row["digest"]))
                conn.execute(
                    "INSERT INTO attempts (job, number, started_at) "
                    "VALUES (?, ?, ?)",
                    (row["digest"], row["attempts"] + 1, now))
                job = dict(row)
                job["state"] = "running"
                job["attempts"] = row["attempts"] + 1
                job["lease_owner"] = owner
                job["lease_expires"] = expires
                claimed.append(job)
        return claimed

    def heartbeat(self, digests: List[str], owner: str, lease: float,
                  now: Optional[float] = None) -> List[str]:
        """Extend ``owner``'s leases on ``digests`` to ``now + lease``.

        Returns the digests still held.  A digest missing from the
        result means the lease was lost — reaped after an expiry and
        possibly re-granted — and the caller must treat its in-flight
        execution as abandoned (its completion calls will be rejected
        by the owner guard).
        """
        if not digests:
            return []
        now = time.time() if now is None else now
        kept: List[str] = []
        with self._tx() as conn:
            for digest in digests:
                cur = conn.execute(
                    "UPDATE jobs SET lease_expires=?, updated_at=? "
                    "WHERE digest=? AND state='running' AND lease_owner=?",
                    (now + lease, now, digest, owner))
                if cur.rowcount:
                    kept.append(digest)
        return kept

    def reap_expired(self, now: Optional[float] = None) -> List[str]:
        """Requeue every ``running`` job whose lease has expired.

        The dead owner's attempt is closed as ``interrupted`` and
        refunded (a crash loop cannot exhaust the retry budget), the
        checkpoint file survives, and the job is immediately claimable
        — by any scheduler sharing the ledger.  Returns the digests
        requeued.  One transaction, so concurrent reapers cannot
        double-refund.
        """
        wall = time.time()
        now = wall if now is None else now
        reaped: List[str] = []
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT digest FROM jobs WHERE state='running' AND "
                "lease_expires <= ? ORDER BY created_at, digest",
                (now,)).fetchall()
            for row in rows:
                conn.execute(
                    "UPDATE jobs SET state='pending', "
                    "attempts=MAX(attempts-1, 0), lease_owner='', "
                    "lease_expires=0, updated_at=? WHERE digest=?",
                    (wall, row["digest"]))
                self._close_attempt(conn, row["digest"], "interrupted",
                                    "lease expired", wall)
                reaped.append(row["digest"])
        return reaped

    def _close_attempt(self, conn, digest: str, outcome: str,
                       error: Optional[str], now: float) -> None:
        conn.execute(
            "UPDATE attempts SET finished_at=?, outcome=?, error=? "
            "WHERE id = (SELECT id FROM attempts WHERE job=? AND "
            "finished_at IS NULL ORDER BY id DESC LIMIT 1)",
            (now, outcome, error, digest))

    def finish(self, digest: str, owner: Optional[str] = None) -> bool:
        """Mark a job ``done``; returns whether the update applied.

        With ``owner`` given, only the current lease holder of a
        ``running`` job may finish it — a worker whose lease was reaped
        gets ``False`` back and must discard its result.
        """
        self._backoff.pop(digest, None)
        now = time.time()
        with self._tx() as conn:
            query = ("UPDATE jobs SET state='done', error=NULL, "
                     "lease_owner='', lease_expires=0, updated_at=? "
                     "WHERE digest=?")
            args: List = [now, digest]
            if owner is not None:
                query += " AND state='running' AND lease_owner=?"
                args.append(owner)
            cur = conn.execute(query, args)
            if cur.rowcount:
                self._close_attempt(conn, digest, "ok", None, now)
        return cur.rowcount > 0

    def fail(self, digest: str, error: str,
             retry_in: Union[float, None, Callable[[int], float]],
             owner: Optional[str] = None) -> str:
        """Record a failed attempt.  Retries (state back to ``pending``
        with ``not_before = now + retry_in``) while attempts remain and
        ``retry_in`` is given; otherwise the job is failed and every
        transitive dependent is failed with it.  Returns the resulting
        state.

        ``retry_in`` may be a callable ``attempts -> seconds``; it is
        evaluated inside the transaction on the row's own post-claim
        attempt count, so backoff schedules never act on a stale
        claim-time snapshot.  With ``owner`` given, a caller that no
        longer holds the lease mutates nothing and gets the job's
        current state back.
        """
        now = time.time()
        with self._tx() as conn:
            row = conn.execute(
                "SELECT state, attempts, max_attempts, lease_owner "
                "FROM jobs WHERE digest=?", (digest,)).fetchone()
            if row is None:
                raise KeyError(f"no such job {digest}")
            if owner is not None and (row["state"] != "running"
                                      or row["lease_owner"] != owner):
                return row["state"]
            if callable(retry_in):
                retry_in = retry_in(row["attempts"])
            retry = (retry_in is not None
                     and row["attempts"] < row["max_attempts"])
            state = "pending" if retry else "failed"
            # Epoch stamp for display/ledger; the claim-time decision
            # uses the monotonic deadline recorded alongside it.
            not_before = now + retry_in if retry else 0
            if retry:
                self._backoff[digest] = (time.monotonic() + retry_in,
                                         row["attempts"])
            else:
                self._backoff.pop(digest, None)
            conn.execute(
                "UPDATE jobs SET state=?, error=?, not_before=?, "
                "lease_owner='', lease_expires=0, updated_at=? "
                "WHERE digest=?",
                (state, error, not_before, now, digest))
            self._close_attempt(conn, digest, "error", error, now)
            if state == "failed":
                self._fail_dependents(conn, digest, now)
        return state

    def fail_attempt(self, digest: str, error: str, retry_base: float,
                     owner: Optional[str] = None) -> Dict:
        """Fail one attempt with exponential backoff pinned to the
        ledger's own attempt count: retry *n* waits
        ``retry_base * 2**(n-1)`` seconds (0.25/0.5/1.0s at the default
        base).  Returns ``{state, attempts, retry_in}``; ``retry_in``
        is ``None`` unless the job went back to ``pending``."""
        info: Dict = {"attempts": 0, "retry_in": None}

        def backoff(attempts: int) -> float:
            info["attempts"] = attempts
            info["retry_in"] = retry_base * (2 ** max(attempts - 1, 0))
            return info["retry_in"]

        info["state"] = self.fail(digest, error, backoff, owner=owner)
        if info["state"] != "pending":
            info["retry_in"] = None
        return info

    def _fail_dependents(self, conn, digest: str, now: float) -> None:
        frontier = [digest]
        while frontier:
            dep = frontier.pop()
            rows = conn.execute(
                "SELECT job FROM job_deps JOIN jobs ON jobs.digest = "
                "job_deps.job WHERE job_deps.dep=? AND jobs.state IN "
                "('pending', 'running')", (dep,)).fetchall()
            for row in rows:
                conn.execute(
                    "UPDATE jobs SET state='failed', error=?, updated_at=? "
                    "WHERE digest=?",
                    (f"upstream failed: {dep[:12]}", now, row["job"]))
                frontier.append(row["job"])

    def _flush_backoff(self, conn, digest: str, now: float) -> None:
        """Persist the remaining monotonic backoff delay into the epoch
        ``not_before`` stamp.  Called at handoff points (release,
        close): without this, a scheduler dropping its in-memory
        deadline would let the next claimant fire the retry early
        whenever the wall clock had stepped forward past the original
        epoch stamp."""
        backoff = self._backoff.pop(digest, None)
        if backoff is None:
            return
        deadline, attempts = backoff
        remaining = deadline - time.monotonic()
        if remaining > 0:
            conn.execute(
                "UPDATE jobs SET not_before=? "
                "WHERE digest=? AND state='pending' AND attempts=?",
                (now + remaining, digest, attempts))

    def release(self, digest: str, note: str = "interrupted",
                owner: Optional[str] = None) -> bool:
        """Return one ``running`` job to ``pending`` (attempt closed as
        interrupted, attempt count refunded); its checkpoint survives.
        With ``owner`` given, only the lease holder may release.  Any
        pending monotonic backoff is persisted, not dropped."""
        now = time.time()
        with self._tx() as conn:
            self._flush_backoff(conn, digest, now)
            query = ("UPDATE jobs SET state='pending', "
                     "attempts=MAX(attempts-1, 0), lease_owner='', "
                     "lease_expires=0, updated_at=? "
                     "WHERE digest=? AND state='running'")
            args: List = [now, digest]
            if owner is not None:
                query += " AND lease_owner=?"
                args.append(owner)
            cur = conn.execute(query, args)
            if cur.rowcount:
                self._close_attempt(conn, digest, "interrupted", note, now)
        return cur.rowcount > 0

    def recover(self) -> int:
        """Startup recovery, lease-scoped: requeue every ``running``
        job whose lease has expired — which includes the lease-less
        claims of a v1-era (or ``lease=0``) scheduler.  Jobs under a
        live lease belong to another scheduler sharing the ledger and
        are left alone, so a newcomer's recovery cannot steal (and
        double-run) in-flight work.  Returns how many were requeued."""
        return len(self.reap_expired())

    # -- campaigns --------------------------------------------------------

    def add_campaign(self, campaign_id: str, name: str, spec: Dict) -> bool:
        with self._tx() as conn:
            cur = conn.execute(
                "INSERT OR IGNORE INTO campaigns (id, name, spec, "
                "created_at) VALUES (?, ?, ?, ?)",
                (campaign_id, name, canonical_json(spec), time.time()))
            return cur.rowcount > 0

    def link_campaign(self, campaign_id: str, digest: str,
                      role: str = "") -> None:
        with self._tx() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO campaign_jobs (campaign, job, role) "
                "VALUES (?, ?, ?)", (campaign_id, digest, role))

    def campaigns(self) -> List[Dict]:
        rows = self._conn.execute(
            "SELECT * FROM campaigns ORDER BY created_at").fetchall()
        return [dict(r) for r in rows]

    def campaign(self, campaign_id: str) -> Optional[Dict]:
        row = self._conn.execute(
            "SELECT * FROM campaigns WHERE id=?", (campaign_id,)).fetchone()
        return dict(row) if row else None

    def campaign_roles(self, campaign_id: str) -> List[Tuple[str, str]]:
        """(job digest, role) pairs of one campaign, submission order."""
        rows = self._conn.execute(
            "SELECT job, role FROM campaign_jobs WHERE campaign=? "
            "ORDER BY rowid", (campaign_id,)).fetchall()
        return [(r["job"], r["role"]) for r in rows]

    def campaign_jobs(self, campaign_id: str) -> List[Dict]:
        """Full job rows of one campaign, submission order, in a single
        query (membership primary key -> jobs primary key join).  Each
        row carries the campaign-facing ``role``.  The per-job-lookup
        alternative is O(N) round trips; this is one."""
        rows = self._conn.execute(
            "SELECT jobs.*, campaign_jobs.role AS campaign_role "
            "FROM campaign_jobs JOIN jobs ON jobs.digest = "
            "campaign_jobs.job WHERE campaign_jobs.campaign=? "
            "ORDER BY campaign_jobs.rowid", (campaign_id,)).fetchall()
        out: List[Dict] = []
        for r in rows:
            job = dict(r)
            job["role"] = job.pop("campaign_role")
            out.append(job)
        return out

    # -- meta pointers ----------------------------------------------------

    def set_meta(self, key: str, value: str) -> None:
        """Set a named pointer (e.g. ``catalog:latest`` -> artifact
        digest).  The schema-version key is the store's own; refuse to
        let callers clobber it."""
        if key == "schema_version":
            raise ValueError("schema_version is managed by the store")
        with self._tx() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (key, value))

    def get_meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key=?", (key,)).fetchone()
        return row["value"] if row else None

    # -- telemetry --------------------------------------------------------

    def record_telemetry(self, digest: str, kind: str, data: Dict) -> None:
        with self._tx() as conn:
            conn.execute(
                "INSERT INTO telemetry (job, at, kind, data) "
                "VALUES (?, ?, ?, ?)",
                (digest, time.time(), kind, json.dumps(data)))

    def telemetry_of(self, digest: str) -> List[Dict]:
        rows = self._conn.execute(
            "SELECT at, kind, data FROM telemetry WHERE job=? ORDER BY id",
            (digest,)).fetchall()
        return [{"at": r["at"], "kind": r["kind"],
                 "data": json.loads(r["data"])} for r in rows]

    def attempts_of(self, digest: str) -> List[Dict]:
        rows = self._conn.execute(
            "SELECT * FROM attempts WHERE job=? ORDER BY id",
            (digest,)).fetchall()
        return [dict(r) for r in rows]

    # -- artifacts --------------------------------------------------------

    def _artifact_path(self, digest: str) -> str:
        return os.path.join(self.root, "artifacts", digest[:2], digest)

    def put_artifact(self, data: bytes, kind: str = "") -> str:
        """Store content-addressed bytes; returns the content digest."""
        digest = hashlib.sha256(data).hexdigest()
        path = self._artifact_path(digest)
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            _atomic_write(path, data)
        with self._tx() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO artifacts (digest, kind, size, "
                "created_at) VALUES (?, ?, ?, ?)",
                (digest, kind, len(data), time.time()))
        return digest

    def get_artifact(self, digest: str) -> bytes:
        with open(self._artifact_path(digest), "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data).hexdigest() != digest:
            raise IOError(f"artifact {digest[:12]} content does not match "
                          "its digest (corrupt store)")
        return data

    def link_artifact(self, job: str, name: str, artifact: str) -> None:
        with self._tx() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO job_artifacts (job, name, artifact) "
                "VALUES (?, ?, ?)", (job, name, artifact))

    def artifacts_of(self, job: str) -> Dict[str, str]:
        rows = self._conn.execute(
            "SELECT name, artifact FROM job_artifacts WHERE job=? "
            "ORDER BY name", (job,)).fetchall()
        return {r["name"]: r["artifact"] for r in rows}

    def result_doc(self, job: str) -> Optional[Dict]:
        """The job's ``result.json`` artifact, parsed (None if absent)."""
        named = self.artifacts_of(job)
        if "result.json" not in named:
            return None
        return json.loads(self.get_artifact(named["result.json"]))

    # -- checkpoints ------------------------------------------------------

    def checkpoint_path(self, digest: str) -> str:
        return os.path.join(self.root, "checkpoints", f"{digest}.json")

    def read_checkpoint(self, digest: str) -> Optional[Dict]:
        path = self.checkpoint_path(digest)
        try:
            with open(path, "r") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except ValueError:
            # Torn writes are impossible (tmp + rename); a JSON error
            # here means foreign bytes.  Ignore and restart the job.
            return None

    def write_checkpoint(self, digest: str, doc: Dict) -> None:
        _atomic_write(self.checkpoint_path(digest),
                      json.dumps(doc).encode("utf-8"))

    def clear_checkpoint(self, digest: str) -> None:
        try:
            os.remove(self.checkpoint_path(digest))
        except FileNotFoundError:
            pass
