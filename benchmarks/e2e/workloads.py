"""The benchmark's four workloads, one pass at a time.

A pass is one closed loop of a single client: every operation starts
when the previous one has returned, on one thread, with ``jobs=1``
everywhere.  Its inputs come from :func:`make_inputs`, a pure function
of (workload, scale, seed, pass index); the program sees only those
inputs.  Each operation's output is checked against an oracle that does
not share the code path under test, and against a pinned value where
one is recorded in ``pins.json``.

Workloads (see README.md for why each one exists):

* ``search``   -- ``Stoke.search`` chains on the jit backend at 32 tests
  per chain, two per (libimf kernel, eta): small-batch incremental
  evaluation.
* ``check``    -- ``Validator.validate`` (jit) and ``exhaustive_check``
  (vector) of each libimf kernel against its degree-reduced rewrite:
  the same runner layer at large batch.
* ``verify``   -- ``BnBVerifier.run`` + ``certificate()`` +
  ``checker.check`` on the same pairs, separate and relational domains.
* ``campaign`` -- ``submit_campaign`` + ``Scheduler(jobs=1)`` on a
  fresh store to a served catalog, then seeded ``/v1/catalog/select``
  queries over HTTP and an identical resubmission.

Running a pass is :func:`run_pass`; with a tracer it wraps the layers of
the workload (:data:`PATCHES`) and reports their self times.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional

import metrics as M
from spans import Tracer, install, self_times

clock = time.perf_counter

# The host's CPU speed drifts: the 2-core reference host switches every
# few seconds between a fast and a slow state, and plain seconds spread
# 12-34% over ten runs.  So every pass times a calibration loop while
# it runs, and each operation's seconds are scaled to the speed at
# which that loop takes REFERENCE_S ("reference seconds").  The loop
# slows down less than the operations do (1.4x against 1.6-1.7x), hence
# the scale's exponent; README.md, "Measurement hygiene", has the
# measurements it was chosen from.
REFERENCE_S = 0.002
CALIBRATION_EXPONENT = 1.25
SAMPLE_EVERY_S = 0.1

LIBIMF = ("cos", "exp", "log", "sin", "tan")
# Degree-reduced rewrites with a real, nonzero approximation error (the
# pairs of benchmarks/bench_verify.py).
REDUCED_DEGREE = {"sin": 9, "cos": 8, "tan": 9, "log": 12, "exp": 8}

# Work per pass.  ``full`` sizes a pass at seven to ten reference
# seconds, so a 20 s run has two passes of distinct inputs; ``smoke``
# exercises every code path in well under a second.
SCALES = {
    "full": {
        # Two short chains per (kernel, eta) rather than one long one:
        # a chain's speed depends on where it wanders (one seed's pass
        # ran 5% faster than another's, every time), and more chains
        # average that out.
        "search": {"kernels": LIBIMF, "etas": (0.0, 1e9), "chains": 2,
                   "proposals": 400, "tests": 32},
        "check": {"kernels": LIBIMF, "validate_proposals": 30_000,
                  "exhaustive_bits": 16},
        "verify": {"kernels": LIBIMF,
                   "budgets": {"separate": 4096, "relational": 256}},
        "campaign": {"kernels": ("dot", "add", "scale", "exp", "sin"),
                     "etas": (0.0, 1e3, 1e6, 1e9), "chains": 2,
                     "proposals": 200, "tests": 16,
                     "validate_proposals": 500, "verify_budget": 64,
                     "selects": 2000},
    },
    "smoke": {
        "search": {"kernels": ("exp", "sin"), "etas": (0.0, 1e9),
                   "chains": 1, "proposals": 60, "tests": 8},
        "check": {"kernels": ("exp", "tan"), "validate_proposals": 500,
                  "exhaustive_bits": 8},
        "verify": {"kernels": ("exp", "tan"),
                   "budgets": {"separate": 64, "relational": 8}},
        "campaign": {"kernels": ("dot", "exp"), "etas": (0.0, 1e9),
                     "chains": 1, "proposals": 40, "tests": 8,
                     "validate_proposals": 100, "verify_budget": 8,
                     "selects": 20},
    },
}


def calibration_loop() -> float:
    """Seconds of a fixed integer loop."""
    start = clock()
    total = 0
    for i in range(20_000):
        total += (i * 2654435761) % 977
    return clock() - start


class Calibrator:
    """Times :func:`calibration_loop` about every SAMPLE_EVERY_S seconds
    of a pass, from a SIGALRM handler, so that samples fall inside long
    operations too.  ``spent`` is the time the samples took so far,
    which every timed step leaves out of its own.

    The intervals are random (half to one and a half SAMPLE_EVERY_S):
    if the host takes the vCPU away for part of every 100 ms, fixed
    intervals would meet that cycle at the same phase in every sample
    of a pass.
    """

    def __init__(self):
        self.samples: List = []  # (clock, calibration loop seconds)
        self.spent = 0.0
        # A traced pass sets this to Tracer.call, so that a sample is a
        # span of its own and not self time of the layer it interrupts.
        self.span: Optional[Callable] = None
        self._previous = None
        self._running = False
        self._intervals = random.Random()

    def sample(self) -> None:
        begin = clock()
        loop = (calibration_loop() if self.span is None
                else self.span("bench.calibrate", calibration_loop))
        end = clock()
        self.samples.append((end, loop))
        self.spent += end - begin

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL,
                         self._intervals.uniform(0.5, 1.5) * SAMPLE_EVERY_S)

    def _tick(self, *_signal) -> None:
        self.sample()
        if self._running:  # not for an alarm that came due as stop() ran
            self._arm()

    def start(self) -> None:
        self.sample()
        self._running = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._arm()

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def elapsed(self, start: float, spent: float) -> float:
        """Seconds since ``start`` without the samples taken since then
        (``spent`` is the reading of :attr:`spent` at ``start``)."""
        return clock() - start - (self.spent - spent)

    def to_reference(self, start: float, end: float) -> float:
        """Factor from plain to reference seconds for work done between
        ``start`` and ``end``: from the samples inside that interval and
        the nearest one on either side."""
        times = [at for at, _ in self.samples]
        first = max(bisect.bisect_right(times, start) - 1, 0)
        last = min(bisect.bisect_left(times, end), len(times) - 1)
        loops = [loop for _, loop in self.samples[first:last + 1]]
        return (REFERENCE_S * len(loops) / sum(loops)) \
            ** CALIBRATION_EXPONENT

    def speed(self) -> float:
        """The host's median speed relative to the reference."""
        return M.median([REFERENCE_S / loop for _, loop in self.samples])


# ---------------------------------------------------------------------------
# Inputs


def make_inputs(workload: str, scale: str, seed: int,
                pass_index: int) -> Dict:
    """Everything a pass runs on, as plain JSON-able data."""
    cfg = SCALES[scale][workload]
    rng = random.Random(f"{workload}/{scale}/{seed}/{pass_index}")
    if workload == "search":
        return {"proposals": cfg["proposals"], "tests": cfg["tests"],
                "chains": [{"kernel": kernel, "eta": eta,
                            "seed": rng.randrange(2 ** 31),
                            "tests_seed": rng.randrange(2 ** 31)}
                           for kernel in cfg["kernels"]
                           for eta in cfg["etas"]
                           for _ in range(cfg["chains"])]}
    if workload == "check":
        return {"validate_proposals": cfg["validate_proposals"],
                "exhaustive_bits": cfg["exhaustive_bits"],
                "pairs": [{"kernel": kernel,
                           "degree": REDUCED_DEGREE[kernel],
                           "seed": rng.randrange(2 ** 31)}
                          for kernel in cfg["kernels"]]}
    if workload == "verify":
        # Branch-and-bound is deterministic: the seed has nothing to
        # vary, so every pass verifies the same pairs.
        return {"runs": [{"kernel": kernel,
                          "degree": REDUCED_DEGREE[kernel],
                          "domain": domain, "budget": budget}
                         for domain, budget in cfg["budgets"].items()
                         for kernel in cfg["kernels"]]}
    if workload == "campaign":
        kernels = cfg["kernels"]
        queries = []
        for _ in range(cfg["selects"]):
            mix = rng.sample(kernels, rng.randint(1, len(kernels)))
            queries.append({
                "budget": repr(10.0 ** rng.uniform(0.0, 19.0)),
                "workload": ",".join(f"{name}:{rng.randint(1, 8)}"
                                     for name in mix)})
        return {"kernels": list(kernels), "etas": list(cfg["etas"]),
                "chains": cfg["chains"], "proposals": cfg["proposals"],
                "tests": cfg["tests"],
                "seed": rng.randrange(2 ** 31),
                "validate_proposals": cfg["validate_proposals"],
                "verify_budget": cfg["verify_budget"], "queries": queries}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Recording one pass


class Recorder:
    """Times, counts and checks the operations of one pass."""

    def __init__(self, tracer: Optional[Tracer], calibrator: Calibrator,
                 pins: Dict[str, str], scale: str, seed: int,
                 pass_index: int):
        self.tracer = tracer
        self.calibrator = calibrator
        self.pins = pins
        self.scale = scale
        # Outputs that depend on the inputs are pinned per (seed, pass).
        self.run_key = f"{seed}/{pass_index}"
        # One record per operation: user-facing and constructor seconds,
        # {amount name: [units, seconds]}, and when it ran.
        self.ops: List[Dict] = []
        self._op: Dict = {}
        self._amount: Optional[str] = None
        self.counters: Dict[str, float] = {}
        self.observed: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._problems: List[str] = []

    def span(self, name: str, fn: Callable, /, *args, **kwargs):
        """Run ``fn`` as one span named ``name`` when tracing."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    @contextlib.contextmanager
    def operation(self, label: str, index: int,
                  amount: Optional[str] = None):
        """One attempted operation; an exception or a failed check inside
        marks it failed (and is recorded, not raised).  Its time counts
        toward ``amount`` unless a step names its own."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = index
        self._op = {"user_s": 0.0, "setup_s": 0.0, "work": {}}
        self.ops.append(self._op)
        self._amount = amount
        self._problems = []
        start = clock()
        try:
            yield
        except Exception as exc:  # counted as a failed operation
            self._problems.append(f"{type(exc).__name__}: {exc}")
        self._op["during"] = (start, clock())
        if self._problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in self._problems)

    def scaled_ops(self) -> List[Dict]:
        """The operations in reference seconds."""
        out = []
        for op in self.ops:
            scale = self.calibrator.to_reference(*op["during"])
            out.append({"user_s": op["user_s"] * scale,
                        "setup_s": op["setup_s"] * scale,
                        "work": {name: [units, seconds * scale]
                                 for name, (units, seconds)
                                 in op["work"].items()}})
        return out

    def _spent(self, seconds: float, amount: Optional[str]) -> None:
        self._op["user_s"] += seconds
        amount = amount or self._amount
        if amount is not None:
            self._op["work"].setdefault(amount, [0, 0.0])[1] += seconds

    def construct(self, cls, /, *args, **kwargs):
        """A per-operation constructor: counted as set-up time."""
        start, spent = clock(), self.calibrator.spent
        try:
            return self.span("bench.setup", cls, *args, **kwargs)
        finally:
            elapsed = self.calibrator.elapsed(start, spent)
            self._op["setup_s"] += elapsed
            self._spent(elapsed, None)

    def timed(self, amount: Optional[str], fn: Callable, /, *args,
              **kwargs):
        """A user-facing step of the current operation; its seconds
        count toward ``amount`` (or the operation's)."""
        start, spent = clock(), self.calibrator.spent
        value = fn(*args, **kwargs)
        self._spent(self.calibrator.elapsed(start, spent), amount)
        return value

    def add(self, amount: str, units: float) -> None:
        """Credit the current operation with ``units`` of ``amount``."""
        self._op["work"].setdefault(amount, [0, 0.0])[0] += units

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def check(self, fn: Callable, *args) -> None:
        """Run an oracle; it returns None or a problem description.  Its
        time is the benchmark's, not the program's: no operation pays it,
        and a traced pass records no layer spans inside it."""
        if self.tracer is None:
            problem = fn(*args)
        else:
            problem = self.tracer.call("bench.check", self.tracer.quiet,
                                       fn, *args)
        if problem:
            self._problems.append(problem)

    def expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self._problems.append(problem)

    def pin(self, key: str, value: str) -> None:
        """Record a pinnable output; a recorded pin must match it."""
        key = f"{self.scale}/{key}"
        self.observed[key] = value
        want = self.pins.get(key)
        if want is not None and want != value:
            self._problems.append(f"pin {key}: got {value}, pinned {want}")


def digest(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# search


def _search_prepare(inp: Dict) -> Dict:
    from repro.kernels.libimf import LIBIMF_KERNELS

    specs = {c["kernel"]: LIBIMF_KERNELS[c["kernel"]]()
             for c in inp["chains"]}
    tests = [specs[c["kernel"]].testcases(random.Random(c["tests_seed"]),
                                          inp["tests"])
             for c in inp["chains"]]
    return {"inp": inp, "specs": specs, "tests": tests}


def _within_eta(target, rewrite, live_outs, tests, eta: float
                ) -> Optional[str]:
    """Oracle: the rewrite stays within eta ULPs of the target on every
    test when both run on the emulator, the semantic reference tier."""
    from repro.core.cost import location_ulp_distance
    from repro.core.runner import Runner

    runner = Runner(live_outs, backend="emulator")
    t_prog, r_prog = runner.prepare(target), runner.prepare(rewrite)
    for number, test in enumerate(tests):
        t_out, t_sig = runner.run(t_prog, test)
        r_out, r_sig = runner.run(r_prog, test)
        if t_sig != r_sig:
            return f"test {number}: signal {r_sig} vs target {t_sig}"
        if t_sig is not None:
            continue
        for loc, want in t_out.items():
            ulps = location_ulp_distance(loc, r_out[loc], want)
            if ulps > eta:
                return f"test {number}: {loc} off by {ulps:g} ULPs > {eta:g}"
    return None


def _search_run(state: Dict, rec: Recorder) -> None:
    from repro.core.cost import CostConfig
    from repro.core.search import SearchConfig, Stoke
    from repro.core.strategies import McmcStrategy

    inp = state["inp"]
    digests = []
    for index, (chain, tests) in enumerate(zip(inp["chains"],
                                               state["tests"])):
        spec = state["specs"][chain["kernel"]]
        label = f"search {chain['kernel']} eta={chain['eta']:g}"
        with rec.operation(label, index):
            stoke = rec.construct(Stoke, spec.program, tests,
                                  spec.live_outs,
                                  CostConfig(eta=chain["eta"]),
                                  backend="jit")
            result = rec.timed(
                "search.proposals", stoke.search,
                SearchConfig(proposals=inp["proposals"], seed=chain["seed"]),
                McmcStrategy())
            stats = result.stats
            rec.add("search.proposals", stats.proposals)
            for name, value in (
                    ("search.proposals", stats.proposals),
                    ("search.invalid", stats.invalid_proposals),
                    ("search.accepted", stats.accepted),
                    ("search.dce_hits", stats.dce_cache["hits"]),
                    ("search.dce_misses", stats.dce_cache["misses"]),
                    ("cost.memo_hits", stoke.cost_fn.cache_hits),
                    ("cost.memo_misses", stoke.cost_fn.cache_misses),
                    ("cost.incremental_hits", stats.incremental["hits"]),
                    ("cost.incremental_fallbacks",
                     stats.incremental["fallbacks"]),
                    ("cost.captures", stats.incremental["captures"])):
                rec.count(name, value)
            rec.expect(result.best_correct is not None,
                       "no correct rewrite (the target itself is one)")
            if result.best_correct is not None:
                fresh = spec.testcases(random.Random(chain["tests_seed"]),
                                       inp["tests"])
                rec.check(_within_eta, spec.program, result.best_correct,
                          spec.live_outs, fresh, chain["eta"])
            digests.append([chain["kernel"], repr(chain["eta"]),
                            repr(result.best_cost),
                            [[i, repr(c)] for i, c in result.trace],
                            stats.accepted])
    with rec.operation("search result digest", len(digests)):
        rec.pin(f"search/{rec.run_key}", digest(digests))


# ---------------------------------------------------------------------------
# check


def _pair_prepare(pairs: List[Dict]) -> Dict:
    from repro.kernels.libimf import LIBIMF_KERNELS

    specs, rewrites = {}, {}
    for pair in pairs:
        factory = LIBIMF_KERNELS[pair["kernel"]]
        specs[pair["kernel"]] = factory()
        rewrites[pair["kernel"]] = factory(pair["degree"]).program
    return {"specs": specs, "rewrites": rewrites}


def _check_prepare(inp: Dict) -> Dict:
    return {"inp": inp, **_pair_prepare(inp["pairs"])}


def _validation_oracle(spec, rewrite, result) -> Optional[str]:
    """Oracle: the reported maximum reproduces at its argmax on the
    emulator backend."""
    from repro.validation.validator import Validator

    if result.argmax is None:
        return "validation reported no argmax"
    oracle = Validator(spec.program, rewrite, spec.live_outs,
                       dict(spec.ranges), spec.base_testcase,
                       backend="emulator")
    err = oracle.err(result.argmax)
    if err != result.max_err:
        return (f"max error {result.max_err!r} does not reproduce on the "
                f"emulator ({err!r})")
    return None


def _check_run(state: Dict, rec: Recorder) -> None:
    from repro.validation.validator import ValidationConfig, Validator
    from repro.verify import exhaustive_check

    inp = state["inp"]
    proposals = inp["validate_proposals"]
    for index, pair in enumerate(inp["pairs"]):
        kernel = pair["kernel"]
        spec, rewrite = state["specs"][kernel], state["rewrites"][kernel]
        with rec.operation(f"validate {kernel}", 2 * index,
                           amount="check.validate"):
            validator = rec.construct(Validator, spec.program, rewrite,
                                      spec.live_outs, dict(spec.ranges),
                                      spec.base_testcase, backend="jit")
            # min_samples = max_proposals: every pass does the same
            # number of evaluations, whatever the Geweke test says.
            result = rec.timed(
                None, validator.validate,
                ValidationConfig(max_proposals=proposals,
                                 min_samples=proposals, seed=pair["seed"]))
            rec.add("check.validate", result.evaluations)
            rec.count("validation.evaluations", result.evaluations)
            rec.check(_validation_oracle, spec, rewrite, result)
            rec.pin(f"check/validate/{rec.run_key}/{kernel}",
                    repr(result.max_err))
        with rec.operation(f"exhaustive {kernel}", 2 * index + 1,
                           amount="check.exhaustive"):
            exact = rec.timed(
                None, rec.span, "verify.exhaustive.grid", exhaustive_check,
                spec.program, rewrite, spec.live_outs, dict(spec.ranges),
                spec.base_testcase, bits_per_input=inp["exhaustive_bits"],
                backend="vector")
            rec.add("check.exhaustive", exact.cases_checked)
            rec.expect(exact.cases_checked
                       == 2 ** (inp["exhaustive_bits"] * len(spec.ranges)),
                       f"checked {exact.cases_checked} cases")
            rec.pin(f"check/exhaustive/{kernel}", repr(exact.max_ulps))


# ---------------------------------------------------------------------------
# verify


def _verify_prepare(inp: Dict) -> Dict:
    return {"inp": inp, **_pair_prepare(inp["runs"])}


def _certificate_digest(cert) -> str:
    doc = cert.to_dict()
    doc["stats"]["wall_time"] = 0.0  # telemetry, not part of the proof
    return digest(doc)


def _certificate_oracle(report, cert, floor: Optional[str]
                        ) -> Optional[str]:
    """The checker accepts the certificate, and its bound is at least
    the exhaustive maximum the check workload pins for the pair."""
    if not report.ok:
        return "certificate rejected: " + "; ".join(report.failures[:3])
    if floor is not None and cert.bound_ulps < float(floor):
        return (f"certified bound {cert.bound_ulps:g} below the "
                f"exhaustive maximum {floor}")
    return None


def _verify_run(state: Dict, rec: Recorder) -> None:
    from repro.verify import checker
    from repro.verify.bnb import BnBConfig, BnBVerifier

    for index, run in enumerate(state["inp"]["runs"]):
        kernel, domain = run["kernel"], run["domain"]
        spec, rewrite = state["specs"][kernel], state["rewrites"][kernel]
        boxes = f"verify.{domain}"
        with rec.operation(f"verify {kernel} {domain}", index):
            verifier = rec.construct(BnBVerifier, spec.program, rewrite,
                                     spec.live_outs, dict(spec.ranges),
                                     domain=domain)
            config = BnBConfig(max_boxes=run["budget"], jobs=1)
            result = rec.timed(boxes, verifier.run, config)
            cert = rec.timed(boxes, verifier.certificate, result,
                             config=config)
            if state["tamper"] is not None:
                cert = state["tamper"](cert)
            report = rec.timed("verify.leaves", checker.check, cert,
                               spec.program, rewrite)
            rec.add(boxes, result.boxes_explored)
            rec.add("verify.leaves", report.leaves_checked)
            for name, value in (
                    ("bnb.explored", result.boxes_explored),
                    ("bnb.pruned", result.boxes_pruned),
                    ("bnb.unsupported", result.unsupported),
                    ("bnb.widened_bit_ops", result.stats.widened_bit_ops)):
                rec.count(name, value)
            rec.counters["bnb.max_frontier"] = max(
                rec.counters.get("bnb.max_frontier", 0),
                result.max_frontier)
            floor = rec.pins.get(f"{rec.scale}/check/exhaustive/{kernel}")
            rec.check(_certificate_oracle, report, cert, floor)
            rec.pin(f"verify/cert/{kernel}/{domain}",
                    _certificate_digest(cert))


# ---------------------------------------------------------------------------
# campaign


def _campaign_prepare(inp: Dict, workdir: str) -> Dict:
    from repro.service.campaign import ALL_STAGES, CampaignSpec

    spec = CampaignSpec(
        kernels=tuple((kernel, float(eta)) for kernel in inp["kernels"]
                      for eta in inp["etas"]),
        chains=inp["chains"], proposals=inp["proposals"],
        testcases=inp["tests"],
        seed=inp["seed"], stages=ALL_STAGES,
        validate_proposals=inp["validate_proposals"],
        verify_budget=inp["verify_budget"], backend="jit")
    os.makedirs(workdir, exist_ok=True)
    return {"inp": inp, "spec": spec, "workdir": workdir}


def _http_get(url: str):
    """One request on its own connection, as ``ServiceClient`` makes it.

    (Reusing one keep-alive connection costs ~40 ms a request here: the
    server writes headers and body in two sends, and Nagle's algorithm
    holds the body for the client's delayed ACK.)
    """
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _select_oracle(ledger, catalog_digest: str, query: Dict,
                   served: bytes) -> Optional[str]:
    """The HTTP answer is byte-identical to a local selection over the
    stored catalog."""
    from repro.catalog import (load_catalog_bytes, parse_workload_spec,
                               resolve_catalog, select_for_budget)

    stored = resolve_catalog(ledger)
    if stored != catalog_digest:
        return f"served catalog {catalog_digest} but stored {stored}"
    body = load_catalog_bytes(ledger.get_artifact(stored))
    local = select_for_budget(body, parse_workload_spec(query["workload"]),
                              float(query["budget"]))
    want = json.dumps({"digest": stored, **local},
                      sort_keys=True).encode("utf-8")
    if want != served:
        return "HTTP select differs from the local select_for_budget"
    return None


def _campaign_run(state: Dict, rec: Recorder) -> None:
    import urllib.parse

    from repro.service import Ledger, Scheduler
    from repro.service.api import ApiServer
    from repro.service.campaign import submit_campaign

    inp, spec = state["inp"], state["spec"]
    root = tempfile.mkdtemp(prefix="store-", dir=state["workdir"])
    events: List = []

    def on_event(job: str, event: str, info: Dict) -> None:
        events.append((job, event, clock()))

    ledger = server = None
    try:
        with rec.operation("campaign submit to catalog", 0,
                           amount="campaign.jobs"):
            ledger = rec.construct(Ledger, root)
            _, counts = rec.timed(
                None, rec.span, "service.campaign.submit", submit_campaign,
                ledger, spec, name="e2e")
            scheduler = rec.construct(Scheduler, ledger, jobs=1,
                                      on_event=on_event)
            final = rec.timed(None, scheduler.run)
            server = rec.construct(ApiServer, root)
            rec.timed(None, rec.span, "service.api.start", server.start)
            status, body = rec.timed(
                None, rec.span, "service.api.catalog", _http_get,
                server.url + "/v1/catalog")
            rec.add("campaign.jobs", counts["jobs"])
            rec.count("service.jobs", counts["jobs"])
            rec.count("service.retries",
                      sum(1 for _, event, _ in events if event == "retry"))
            rec.expect(status == 200, f"GET /v1/catalog -> {status}")
            rec.expect(final.get("failed", 0) == 0
                       and final.get("done", 0) == counts["jobs"],
                       f"job states {final}")
            catalog = json.loads(body)["digest"]
            rec.pin(f"campaign/catalog/{rec.run_key}", catalog)
            rec.counters["service.queue_wait_ms_p50"] = M.quantile(
                rec.span("bench.telemetry", _queue_waits, ledger, events),
                0.50)

        for index, query in enumerate(inp["queries"]):
            with rec.operation(f"select {index}", 1 + index,
                               amount="campaign.select"):
                # Budgets such as 1e+09 must be url-encoded: a raw '+'
                # decodes to a space and the server rejects the float.
                url = (server.url + "/v1/catalog/select?"
                       + urllib.parse.urlencode(query))
                status, body = rec.timed(
                    None, rec.span, "service.api.select", _http_get, url)
                rec.add("campaign.select", 1)
                rec.expect(status == 200, f"{url} -> {status}: {body!r}")
                if index == 0:
                    rec.check(_select_oracle, ledger, catalog, query, body)

        with rec.operation("campaign resubmit", 1 + len(inp["queries"])):
            _, again = rec.timed(
                None, rec.span, "service.campaign.submit", submit_campaign,
                ledger, spec, name="e2e")
            rec.expect(again["new"] == 0,
                       f"resubmission added {again['new']} jobs")
    finally:
        rec.span("bench.teardown", _teardown, server, ledger, root)


def _teardown(server, ledger, root: str) -> None:
    if server is not None:
        # stop() waits for the serve loop's next 0.5 s poll; requests
        # wake the loop so it sees the stop at once.
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        while stopper.is_alive():
            with contextlib.suppress(OSError):
                _http_get(server.url + "/v1/health")
            stopper.join(0.01)
    if ledger is not None:
        ledger.close()
    shutil.rmtree(root, ignore_errors=True)


def _queue_waits(ledger, events) -> List[float]:
    """Per job with dependencies: its start event minus the done event
    of its last dependency, in milliseconds."""
    done = {job: at for job, event, at in events if event == "done"}
    waits = []
    for job, event, at in events:
        if event != "start":
            continue
        deps = ledger.deps_of(job)
        if deps and all(dep in done for dep in deps):
            waits.append(1e3 * (at - max(done[dep] for dep in deps)))
    return waits


# ---------------------------------------------------------------------------
# Layers each workload wraps when traced


def _domain_of_transfer(args) -> str:
    from repro.verify.relational import RelationalTransfer

    domain = ("relational" if isinstance(args[0], RelationalTransfer)
              else "separate")
    return f"verify.{domain}.transfer"


def _tests_in_batch(args) -> int:
    return len(args[2])


_RUNNER = (
    ("repro.core.runner", "Runner.prepare", "core.runner.prepare"),
    ("repro.core.runner", "Runner.run", "core.runner.run"),
    ("repro.core.runner", "Runner.run_values", "core.runner.run"),
    ("repro.core.runner", "Runner.run_batch", "core.runner.run",
     _tests_in_batch),
    ("repro.core.runner", "Runner.execute_from", "core.runner.run"),
    ("repro.core.runner", "Runner.execute_batch_from", "core.runner.run",
     _tests_in_batch),
)

# (module, attribute, span name[, units]) per workload.
PATCHES = {
    "search": _RUNNER + (
        ("repro.core.search", "Stoke.search", "core.search"),
        ("repro.core.search", "Stoke._dce", "core.search.dce"),
        ("repro.core.transforms", "Transforms.propose",
         "core.transforms.propose"),
        ("repro.core.cost", "CostFunction.cost", "core.cost.evaluate"),
        ("repro.core.cost", "CostFunction.eq_fast", "core.cost.evaluate"),
        ("repro.core.cost", "CostFunction.set_current",
         "core.cost.evaluate"),
        ("repro.core.strategies", "McmcStrategy.accept",
         "core.mcmc.accept"),
        ("repro.core.cost", "compile_program", "x86.jit.compile"),
        ("repro.core.cost", "bound_steps", "x86.stepper.bind"),
    ),
    "check": _RUNNER + (
        ("repro.validation.validator", "Validator.validate",
         "validation.validator.validate"),
        # A scalar err() call is an evaluation block of one proposal.
        ("repro.validation.validator", "Validator.err",
         "validation.validator.err_block"),
        ("repro.validation.validator", "Validator.err_block",
         "validation.validator.err_block"),
    ),
    "verify": (
        ("repro.verify.bnb", "BnBVerifier.run",
         lambda args: f"verify.{args[0].spec.domain}.commit"),
        ("repro.verify.bnb", "BnBVerifier.certificate",
         "verify.certificate.build"),
        ("repro.verify.interval", "IntervalTransfer.analyze_unit",
         _domain_of_transfer),
        ("repro.verify.interval", "IntervalTransfer.analyze_split",
         _domain_of_transfer),
        ("repro.verify.checker", "check", "verify.checker.check"),
    ),
    "campaign": (
        ("repro.service.scheduler", "Scheduler.run",
         "service.scheduler.loop"),
        ("repro.service.scheduler", "LocalSource.claim",
         "service.scheduler.claim"),
        ("repro.service.scheduler", "LocalSource.dependency_docs",
         "service.scheduler.deps"),
        ("repro.service.scheduler", "LocalSource.succeed",
         "service.scheduler.commit"),
        ("repro.service.queue", "execute_job",
         lambda args: f"service.worker.run.{args[1]['kind']}"),
        ("repro.catalog.frontier", "assemble_catalog",
         "catalog.frontier.assemble"),
        ("repro.service.api", "select_for_budget",
         "catalog.selector.select"),
    ),
}

_WORKLOADS = {
    "search": (_search_prepare, _search_run),
    "check": (_check_prepare, _check_run),
    "verify": (_verify_prepare, _verify_run),
    "campaign": (_campaign_prepare, _campaign_run),
}


# ---------------------------------------------------------------------------
# One pass


def run_pass(workload: str, scale: str, seed: int, pass_index: int,
             traced: bool, pins: Dict[str, str], workdir: str,
             started: float, calibrator: Calibrator,
             spans_path: Optional[str] = None,
             tamper: Optional[Callable] = None,
             setup_only: bool = False) -> Dict:
    """Prepare and run one pass; returns its measurements.

    ``started`` is the clock reading taken when the process started,
    before ``repro`` was imported, and ``calibrator`` has been sampling
    since then; start-up time runs from there to the first operation.
    The pass stops the calibrator.  ``setup_only`` stops the pass before
    its first operation and returns only its start-up time.  ``tamper``
    (tests only) rewrites each certificate of the verify workload before
    it is checked.
    """
    from repro.x86.jit import compile_cache_stats

    restore = None
    try:
        prepare, run = _WORKLOADS[workload]
        inp = make_inputs(workload, scale, seed, pass_index)
        state = (prepare(inp, workdir) if workload == "campaign"
                 else prepare(inp))
        state["tamper"] = tamper
        tracer = Tracer() if traced else None
        if traced:
            restore = install(tracer, PATCHES[workload])
            calibrator.span = tracer.call
        rec = Recorder(tracer, calibrator, pins, scale, seed, pass_index)
        jit_before = compile_cache_stats()
        imported_s = calibrator.elapsed(started, 0.0)
        pass_start = clock()
        if not setup_only:
            run(state, rec)
        wall_s = clock() - pass_start
    finally:
        calibrator.stop()
        if restore is not None:
            restore()
    startup_s = imported_s * calibrator.to_reference(started, pass_start)
    if setup_only:
        return {"workload": workload, "setup_only": True,
                "startup_s": startup_s}
    jit_after = compile_cache_stats()
    rec.count("jit.hits", jit_after["hits"] - jit_before["hits"])
    rec.count("jit.misses", jit_after["misses"] - jit_before["misses"])

    ops = rec.scaled_ops()
    amounts: Dict[str, List[float]] = {}
    for op in ops:
        for name, (units, seconds) in op["work"].items():
            row = amounts.setdefault(name, [0, 0.0])
            row[0] += units
            row[1] += seconds
    out = {
        "workload": workload, "scale": scale, "seed": seed,
        "pass": pass_index, "traced": traced, "wall_s": wall_s,
        # Process start to the first operation, and every constructor.
        "startup_s": startup_s,
        "construct_s": sum(op["setup_s"] for op in ops),
        "user_s": sum(op["user_s"] for op in ops),
        # The same in plain seconds, to show what calibration corrects.
        "plain_s": sum(op["user_s"] for op in rec.ops),
        "amounts": amounts,
        "select_ms": [1e3 * op["work"]["campaign.select"][1] for op in ops
                      if "campaign.select" in op["work"]],
        "speed": calibrator.speed(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": rec.attempted, "failed": rec.failed,
        "failures": rec.failures[:20], "observed": rec.observed,
    }
    if tracer is not None:
        threads = tracer.threads()
        table: Dict[str, Dict[str, float]] = {}
        for spans in threads:
            for name, row in self_times(spans).items():
                merged = table.setdefault(name, {"self_s": 0.0, "calls": 0,
                                                 "units": 0})
                for key in merged:
                    merged[key] += row[key]
        out["table"] = table
        out["layers"] = M.layers(table, rec.counters)
        out["attributed"] = M.attributed(
            self_times(threads[0]) if threads else {}, wall_s)
        if spans_path:
            tracer.dump(spans_path)
    return out
