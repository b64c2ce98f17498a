"""Two schedulers, one ledger: lease claiming must prevent double
execution, and a SIGKILLed scheduler's leases must expire so its jobs
resume on the survivor — bit-identical to an uninterrupted run.

This is the multi-node acceptance test, so both schedulers are real
``repro serve`` subprocesses sharing the store directory, and the kill
is SIGKILL (no cleanup handlers), exactly like a host loss.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.service import Ledger, Scheduler, submit_campaign
from repro.service.campaign import CampaignSpec

CHECKPOINT_EVERY = 100
LEASE = 2.0  # short, so the survivor reaps the dead scheduler quickly


def _spec():
    return CampaignSpec(kernels=(("dot", 0.0), ("dot", 1.0e5)), chains=2,
                        proposals=2_400, testcases=8, seed=0,
                        validate_proposals=300, verify_budget=64)


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def _serve(store):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", store,
         "--jobs", "1", "--checkpoint-every", str(CHECKPOINT_EVERY),
         "--lease", str(LEASE), "--quiet"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _wait_for_checkpoints(store, distinct, timeout=90.0):
    """Block until ``distinct`` checkpoint files exist at once.  A
    finished job deletes its file, so each is a job in flight; counting
    files seen at different times would let a finished job's stand in
    for one that has not checkpointed yet."""
    checkpoints = os.path.join(store, "checkpoints")
    seen = set()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.isdir(checkpoints):
            seen = {name for name in os.listdir(checkpoints)
                    if name.endswith(".json")}
        if len(seen) >= distinct:
            return
        time.sleep(0.05)
    pytest.fail(f"saw {len(seen)} checkpointed job(s), wanted {distinct}")


@pytest.mark.slow
def test_two_schedulers_one_killed_no_double_runs(tmp_path):
    spec = _spec()

    # Reference: one scheduler, uninterrupted, in-process.
    ref_root = str(tmp_path / "reference")
    with Ledger(ref_root) as ledger:
        cid, _ = submit_campaign(ledger, spec, name="contention")
        Scheduler(ledger, jobs=1,
                  checkpoint_every=CHECKPOINT_EVERY).run()
        assert ledger.counts()["failed"] == 0
        reference = {digest: ledger.artifacts_of(digest)
                     for digest, _role in ledger.campaign_roles(cid)}

    # Contended run: two serve processes share the ledger; one dies.
    root = str(tmp_path / "contended")
    with Ledger(root) as ledger:
        submit_campaign(ledger, spec, name="contention")

    victim = _serve(root)
    survivor = None
    try:
        _wait_for_checkpoints(root, distinct=1)
        survivor = _serve(root)
        # Two distinct live checkpoints = both schedulers are mid-job
        # (finished jobs delete their checkpoint files), so the kill
        # interrupts the victim's job with resume state on disk.
        _wait_for_checkpoints(root, distinct=2)
        victim.kill()
        victim.wait()

        stdout, stderr = survivor.communicate(timeout=300)
        assert survivor.returncode == 0, stderr.decode()
    finally:
        for proc in (victim, survivor):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()

    with Ledger(root) as ledger:
        counts = ledger.counts()
        assert counts["failed"] == 0 and counts["pending"] == 0 \
            and counts["running"] == 0

        # No job ran (to completion) twice: the owner guard admits
        # exactly one 'ok' attempt ever, even across the reap/regrant.
        for row in ledger.jobs():
            outcomes = [a["outcome"] for a in
                        ledger.attempts_of(row["digest"])]
            assert outcomes.count("ok") == 1, \
                f"job {row['digest'][:12]} completed {outcomes}"

        # The victim's lease expired and its job was reaped...
        interrupted = [
            row["digest"] for row in ledger.jobs()
            if any(a["outcome"] == "interrupted"
                   for a in ledger.attempts_of(row["digest"]))]
        assert interrupted, "the kill interrupted no leased job"

        # ...and resumed from its checkpoint, not from scratch.
        resumed_at = [
            rec["data"]["resumed_at"]
            for digest in interrupted
            for rec in ledger.telemetry_of(digest)
            if rec["kind"] == "attempt" and "resumed_at" in rec["data"]
        ]
        assert any(offset >= CHECKPOINT_EVERY for offset in resumed_at)

        # The payoff: every artifact (certificates included) is byte-
        # identical to the uninterrupted single-scheduler run.
        cid = ledger.campaigns()[0]["id"]
        contended = {digest: ledger.artifacts_of(digest)
                     for digest, _role in ledger.campaign_roles(cid)}
        assert any("certificate.json" in named
                   for named in contended.values())
    assert contended == reference


@pytest.mark.slow
def test_two_schedulers_to_completion_no_double_runs(tmp_path):
    """Both schedulers live to the end: leases (not luck) partition the
    work, and both exit once the shared store is idle."""
    root = str(tmp_path / "store")
    with Ledger(root) as ledger:
        submit_campaign(
            ledger,
            CampaignSpec(kernels=(("dot", 1.0e5),), chains=2,
                         proposals=1_200, testcases=8, seed=0,
                         stages=("search", "select")),
            name="pair")

    first = _serve(root)
    second = _serve(root)
    try:
        _out1, err1 = first.communicate(timeout=300)
        _out2, err2 = second.communicate(timeout=300)
        assert first.returncode == 0, err1.decode()
        assert second.returncode == 0, err2.decode()
    finally:
        for proc in (first, second):
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    with Ledger(root) as ledger:
        counts = ledger.counts()
        assert counts["done"] == 3 and counts["failed"] == 0
        for row in ledger.jobs():
            outcomes = [a["outcome"] for a in
                        ledger.attempts_of(row["digest"])]
            assert outcomes.count("ok") == 1
