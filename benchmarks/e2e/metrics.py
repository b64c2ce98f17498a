"""Metric names, units, and how one pass's measurements become metrics.

Every workload reports the same end-to-end metrics (so the same names
mean the same thing on every workload), and every per-layer metric; a
layer a workload never enters reads 0 there.  This module imports
nothing from ``repro``: the parent process uses it to aggregate and
print, the child process to compute a pass's numbers.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

WORKLOADS = ("search", "check", "verify", "campaign")

# README.md defines each metric; these are the names and units the
# benchmark emits and BENCHMARK.json declares.
END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# The operations of each workload (names of Recorder amounts).
# work_per_s is the unweighted geometric mean of their rates, so halving
# any one rate moves it by the same share however little time that
# operation takes: 29% with two operations, 21% with three.
# A campaign's selects are many small requests; their rate is one over
# the median select latency (the tail is campaign.select_p99_ms).
PRIMARY = {
    "search": ("search.proposals",),
    "check": ("check.validate", "check.exhaustive"),
    "verify": ("verify.separate", "verify.relational", "verify.leaves"),
    "campaign": ("campaign.jobs", "campaign.select"),
}

# Rates and latencies of the single operations behind work_per_s;
# compare.py holds them to the work_per_s bound.
# A traced run takes them from its untraced passes, so tracing overhead
# does not move them.
SUB_OPERATION = (
    ("search.proposals_per_s", "1/s"),
    ("check.validate_evals_per_s", "1/s"),
    ("check.exhaustive_cases_per_s", "1/s"),
    ("verify.separate.boxes_per_s", "1/s"),
    ("verify.relational.boxes_per_s", "1/s"),
    ("verify.check_leaves_per_s", "1/s"),
    ("campaign.submit_to_catalog_s", "s"),
    ("campaign.select_p50_ms", "ms"),
    ("campaign.select_p99_ms", "ms"),
)

JOB_KINDS = ("search", "select", "validate", "verify", "catalog")

# Layer metrics, measured in traced passes: seconds are self time per
# pass, counts are per pass.
LAYER = (
    ("core.transforms.propose_s", "s"),
    ("core.transforms.invalid_ratio", "ratio"),
    ("core.cost.evaluate_s", "s"),
    ("core.cost.evaluations", "count"),
    ("core.cost.memo_hit_ratio", "ratio"),
    ("core.cost.incremental_hit_ratio", "ratio"),
    ("core.cost.checkpoint_captures", "count"),
    ("core.runner.prepare_s", "s"),
    ("core.runner.prepares", "count"),
    ("core.search.dce_s", "s"),
    ("core.search.dce_hit_ratio", "ratio"),
    ("core.mcmc.accept_s", "s"),
    ("core.search.acceptance_ratio", "ratio"),
    ("core.search.unattributed_s", "s"),
    ("x86.jit.compile_s", "s"),
    ("x86.jit.compile_cache_hit_ratio", "ratio"),
    ("x86.stepper.bind_s", "s"),
    ("core.runner.run_s", "s"),
    ("core.runner.tests_run", "count"),
    ("core.runner.tests_per_call", "tests/call"),
    ("validation.validator.validate_s", "s"),
    ("validation.validator.err_block_s", "s"),
    ("validation.validator.evals_per_block", "evals/block"),
    ("verify.exhaustive.grid_s", "s"),
    ("verify.separate.transfer_s", "s"),
    ("verify.relational.transfer_s", "s"),
    ("verify.separate.commit_s", "s"),
    ("verify.relational.commit_s", "s"),
    ("verify.bnb.pruned_ratio", "ratio"),
    ("verify.bnb.unsupported_ratio", "ratio"),
    ("verify.bnb.max_frontier", "count"),
    ("verify.interval.widened_bit_ops", "count"),
    ("verify.certificate.build_s", "s"),
    ("verify.checker.check_s", "s"),
    ("service.scheduler.claim_s", "s"),
    ("service.scheduler.deps_s", "s"),
    ("service.scheduler.commit_s", "s"),
    ("service.scheduler.loop_s", "s"),
) + tuple((f"service.worker.run_s.{kind}", "s") for kind in JOB_KINDS) + (
    ("service.scheduler.queue_wait_ms_p50", "ms"),
    ("service.jobs", "count"),
    ("service.retries", "count"),
    ("catalog.frontier.assemble_s", "s"),
    ("catalog.selector.select_ms", "ms"),
    ("service.api.overhead_ms", "ms"),
)

TRACE = (
    ("trace.attributed_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
)

PER_LAYER = SUB_OPERATION + LAYER + TRACE

# Traced time outside any named layer: the search loop's own code.
UNATTRIBUTED = ("core.search",)
# A traced pass fails when its named spans cover less of its wall time.
MIN_ATTRIBUTED = 0.90


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) by linear interpolation."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def totals(passes: Sequence[Dict]) -> Dict[str, List[float]]:
    """[units, reference seconds] per amount name over passes."""
    out: Dict[str, List[float]] = {}
    for p in passes:
        for name, (units, seconds) in p["amounts"].items():
            row = out.setdefault(name, [0, 0.0])
            row[0] += units
            row[1] += seconds
    return out


def work_per_s(workload: str, passes: Sequence[Dict]) -> float:
    """Geometric mean of the workload's operation rates over passes (0
    if one is)."""
    amounts = totals(passes)
    select_ms = [ms for p in passes for ms in p["select_ms"]]
    rates = [ratio(1e3, quantile(select_ms, 0.50))
             if name == "campaign.select"
             else ratio(*amounts.get(name, (0, 0.0)))
             for name in PRIMARY[workload]]
    if min(rates) <= 0.0:
        return 0.0
    return statistics.geometric_mean(rates)


def sub_operation(passes: Sequence[Dict]) -> Dict[str, float]:
    """Per-operation rates and latencies over passes."""
    amounts = totals(passes)

    def rate(key: str) -> float:
        units, seconds = amounts.get(key, (0, 0.0))
        return ratio(units, seconds)

    select_ms = [ms for p in passes for ms in p["select_ms"]]
    return {
        "search.proposals_per_s": rate("search.proposals"),
        "check.validate_evals_per_s": rate("check.validate"),
        "check.exhaustive_cases_per_s": rate("check.exhaustive"),
        "verify.separate.boxes_per_s": rate("verify.separate"),
        "verify.relational.boxes_per_s": rate("verify.relational"),
        "verify.check_leaves_per_s": rate("verify.leaves"),
        # Seconds per campaign: each pass submits one.
        "campaign.submit_to_catalog_s":
            ratio(amounts.get("campaign.jobs", (0, 0.0))[1], len(passes)),
        "campaign.select_p50_ms": quantile(select_ms, 0.50),
        "campaign.select_p99_ms": quantile(select_ms, 0.99),
    }


def layers(table: Dict[str, Dict[str, float]],
           counters: Dict[str, float]) -> Dict[str, float]:
    """Layer metrics of one traced pass.

    ``table`` is the pass's self-time table (all threads), ``counters``
    the program's own counters the workload collected.
    """
    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0)

    c = counters.get
    run_calls = calls("core.runner.run")
    tests_run = table.get("core.runner.run", {}).get("units", 0)
    selects = calls("catalog.selector.select")
    out = {
        "core.transforms.propose_s": self_s("core.transforms.propose"),
        "core.transforms.invalid_ratio":
            ratio(c("search.invalid", 0), c("search.proposals", 0)),
        "core.cost.evaluate_s": self_s("core.cost.evaluate"),
        "core.cost.evaluations": c("cost.memo_hits", 0)
        + c("cost.memo_misses", 0),
        "core.cost.memo_hit_ratio":
            ratio(c("cost.memo_hits", 0),
                  c("cost.memo_hits", 0) + c("cost.memo_misses", 0)),
        "core.cost.incremental_hit_ratio":
            ratio(c("cost.incremental_hits", 0),
                  c("cost.incremental_hits", 0)
                  + c("cost.incremental_fallbacks", 0)),
        "core.cost.checkpoint_captures": c("cost.captures", 0),
        "core.runner.prepare_s": self_s("core.runner.prepare"),
        "core.runner.prepares": calls("core.runner.prepare"),
        "core.search.dce_s": self_s("core.search.dce"),
        "core.search.dce_hit_ratio":
            ratio(c("search.dce_hits", 0),
                  c("search.dce_hits", 0) + c("search.dce_misses", 0)),
        "core.mcmc.accept_s": self_s("core.mcmc.accept"),
        "core.search.acceptance_ratio":
            ratio(c("search.accepted", 0),
                  c("search.proposals", 0) - c("search.invalid", 0)),
        "core.search.unattributed_s": self_s("core.search"),
        "x86.jit.compile_s": self_s("x86.jit.compile"),
        "x86.jit.compile_cache_hit_ratio":
            ratio(c("jit.hits", 0), c("jit.hits", 0) + c("jit.misses", 0)),
        "x86.stepper.bind_s": self_s("x86.stepper.bind"),
        "core.runner.run_s": self_s("core.runner.run"),
        "core.runner.tests_run": tests_run,
        "core.runner.tests_per_call": ratio(tests_run, run_calls),
        "validation.validator.validate_s":
            self_s("validation.validator.validate"),
        "validation.validator.err_block_s":
            self_s("validation.validator.err_block"),
        "validation.validator.evals_per_block":
            ratio(c("validation.evaluations", 0),
                  calls("validation.validator.err_block")),
        "verify.exhaustive.grid_s": self_s("verify.exhaustive.grid"),
        "verify.bnb.pruned_ratio":
            ratio(c("bnb.pruned", 0), c("bnb.explored", 0)),
        "verify.bnb.unsupported_ratio":
            ratio(c("bnb.unsupported", 0), c("bnb.explored", 0)),
        "verify.bnb.max_frontier": c("bnb.max_frontier", 0),
        "verify.interval.widened_bit_ops": c("bnb.widened_bit_ops", 0),
        "verify.certificate.build_s": self_s("verify.certificate.build"),
        "verify.checker.check_s": self_s("verify.checker.check"),
        "service.scheduler.claim_s": self_s("service.scheduler.claim"),
        "service.scheduler.deps_s": self_s("service.scheduler.deps"),
        "service.scheduler.commit_s": self_s("service.scheduler.commit"),
        "service.scheduler.loop_s": self_s("service.scheduler.loop"),
        "service.scheduler.queue_wait_ms_p50":
            c("service.queue_wait_ms_p50", 0),
        "service.jobs": c("service.jobs", 0),
        "service.retries": c("service.retries", 0),
        "catalog.frontier.assemble_s": self_s("catalog.frontier.assemble"),
        "catalog.selector.select_ms":
            1e3 * ratio(self_s("catalog.selector.select"), selects),
        "service.api.overhead_ms":
            1e3 * ratio(self_s("service.api.select")
                        - self_s("catalog.selector.select"), selects),
    }
    for domain in ("separate", "relational"):
        out[f"verify.{domain}.transfer_s"] = \
            self_s(f"verify.{domain}.transfer")
        out[f"verify.{domain}.commit_s"] = self_s(f"verify.{domain}.commit")
    for kind in JOB_KINDS:
        out[f"service.worker.run_s.{kind}"] = \
            self_s(f"service.worker.run.{kind}")
    return out


def attributed(main_table: Dict[str, Dict[str, float]],
               wall_s: float) -> float:
    """Share of a pass's wall time its main thread spent in named layers."""
    named = sum(row["self_s"] for name, row in main_table.items()
                if name not in UNATTRIBUTED)
    return ratio(named, wall_s)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0
