"""Workload-level implementation selection under an error budget.

OpTuner's composition (*Faster Math Functions, Soundly*): a workload is
a set of kernels with call counts and error weights, the application's
tolerance is an end-to-end budget, and the selector picks one certified
catalog entry per kernel so the *composed* bound

    sum_k  weight_k * error_k      <=  budget

holds while total latency ``sum_k calls_k * latency_k`` is as small as
greed can make it.  Every kernel starts at the low-error end of its
frontier (the zero-error baseline is always present, so budget 0 is
always feasible for cataloged kernels); each greedy step advances the
kernel whose next frontier point buys the most weighted latency per
unit of weighted error, until no step fits the remaining budget.

Frontier entries are strictly increasing in error and strictly
decreasing in latency (:func:`repro.catalog.frontier.mark_frontier`),
so step costs and gains are strictly positive and the greedy loop
terminates.  Ties break on kernel name, then entry id, making the
assignment deterministic for a given catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.serialize import dec_float, enc_float

from repro.catalog.frontier import CatalogError


@dataclass(frozen=True)
class WorkloadKernel:
    """One kernel's role in a workload."""

    name: str
    calls: int = 1       # latency weight: invocations per workload unit
    weight: float = 1.0  # error weight in the composed bound

    def to_dict(self) -> Dict:
        return {"name": self.name, "calls": self.calls,
                "weight": enc_float(self.weight)}


def resolve_workload(workload) -> List[WorkloadKernel]:
    """Normalize a workload description.

    Accepts a preset name from :data:`repro.kernels.WORKLOADS`, a
    ``{kernel: calls}`` mapping, or an explicit kernel list
    (``["dot", "add"]`` / ``[{"name": ..., "calls": ..., "weight":
    ...}]``).
    """
    if isinstance(workload, str):
        from repro.kernels import WORKLOADS

        if workload not in WORKLOADS:
            raise CatalogError(
                f"unknown workload {workload!r} "
                f"(known: {', '.join(sorted(WORKLOADS))})")
        workload = WORKLOADS[workload]
    if isinstance(workload, dict):
        return [WorkloadKernel(name, calls=int(calls))
                for name, calls in sorted(workload.items())]
    out: List[WorkloadKernel] = []
    for item in workload:
        if isinstance(item, WorkloadKernel):
            out.append(item)
        elif isinstance(item, str):
            out.append(WorkloadKernel(item))
        else:
            out.append(WorkloadKernel(
                item["name"], calls=int(item.get("calls", 1)),
                weight=float(dec_float(item.get("weight", 1.0)))))
    if not out:
        raise CatalogError("empty workload")
    names = [k.name for k in out]
    if len(set(names)) != len(names):
        raise CatalogError(f"duplicate kernels in workload: {names}")
    return out


def parse_workload_spec(text: str):
    """Parse a CLI/URL workload argument.

    Either a preset name (``aek``, ``s3d``) or a comma list of
    ``kernel[:calls]`` items (``dot:3,add:1,scale``), each kernel at
    most once and with at least one call.
    """
    from repro.kernels import WORKLOADS

    text = text.strip()
    if text in WORKLOADS:
        return text
    workload: Dict[str, int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, calls = item.partition(":")
        try:
            count = int(calls) if calls else 1
        except ValueError:
            count = 0
        if count < 1:
            raise CatalogError(
                f"bad workload item {item!r} (want kernel[:calls] with "
                f"calls >= 1)")
        if name in workload:
            raise CatalogError(f"duplicate kernel {name!r} in workload "
                               f"spec {text!r}")
        workload[name] = count
    if not workload:
        raise CatalogError(
            f"empty workload spec {text!r} "
            f"(presets: {', '.join(sorted(WORKLOADS))})")
    return workload


def _frontier_of(body: Dict, name: str) -> List[Dict]:
    kernels = body.get("kernels", {})
    if name not in kernels:
        raise CatalogError(
            f"workload kernel {name!r} not in catalog "
            f"(has: {', '.join(sorted(kernels)) or 'none'})")
    frontier = [e for e in kernels[name]["entries"] if e["on_frontier"]]
    if not frontier:
        raise CatalogError(f"{name}: catalog has no frontier entries")
    return frontier


def select_for_budget(body: Dict, workload, budget: float,
                      max_error: Optional[Dict[str, float]] = None
                      ) -> Dict:
    """Choose one catalog entry per workload kernel under ``budget``.

    Returns the assignment with its certified composite bound,
    aggregate latency, and the greedy trace (which steps were taken and
    what each bought).  ``max_error`` optionally caps individual
    kernels (e.g. a kernel whose output feeds a branch), on top of the
    composite budget.
    """
    if not budget >= 0:  # NaN too: it would pass every step check
        raise CatalogError(f"error budget must be >= 0, got {budget:g}")
    kernels = resolve_workload(workload)
    caps = max_error or {}

    frontiers: Dict[str, List[Dict]] = {}
    position: Dict[str, int] = {}
    for wk in kernels:
        frontier = _frontier_of(body, wk.name)
        cap = caps.get(wk.name)
        if cap is not None:
            frontier = [e for e in frontier
                        if dec_float(e["error_ulps"]) <= cap]
            if not frontier:
                raise CatalogError(
                    f"{wk.name}: no frontier entry with error <= "
                    f"{cap:g}")
        frontiers[wk.name] = frontier
        position[wk.name] = 0

    def err(wk: WorkloadKernel, idx: int) -> float:
        return wk.weight * dec_float(
            frontiers[wk.name][idx]["error_ulps"])

    composite = sum(err(wk, 0) for wk in kernels)
    if composite > budget:
        floor = {wk.name: dec_float(
            frontiers[wk.name][0]["error_ulps"]) for wk in kernels}
        detail = ", ".join(f"{name}={bound:g}"
                           for name, bound in sorted(floor.items())
                           if bound > 0)
        raise CatalogError(
            f"budget {budget:g} infeasible: the lowest certified "
            f"composite bound is {composite:g}"
            + (f" (error floors: {detail})" if detail else ""))

    steps: List[Dict] = []
    while True:
        best: Optional[Tuple[float, str]] = None
        for wk in kernels:
            idx = position[wk.name]
            if idx + 1 >= len(frontiers[wk.name]):
                continue
            cost = err(wk, idx + 1) - err(wk, idx)
            if composite + cost > budget:
                continue
            cur = frontiers[wk.name][idx]
            nxt = frontiers[wk.name][idx + 1]
            gain = wk.calls * (cur["latency"] - nxt["latency"])
            # cost > 0 on a frontier; rank by latency bought per unit
            # of budget spent (higher is better, ties on name).
            ratio = gain / cost if cost > 0 else math.inf
            if best is None or ratio > best[0]:
                best = (ratio, wk.name)
        if best is None:
            break
        name = best[1]
        wk = next(k for k in kernels if k.name == name)
        idx = position[name]
        cur, nxt = frontiers[name][idx], frontiers[name][idx + 1]
        cost = err(wk, idx + 1) - err(wk, idx)
        composite += cost
        position[name] = idx + 1
        steps.append({
            "kernel": name,
            "to": nxt["id"],
            "error_cost": enc_float(cost),
            "latency_gain": wk.calls * (cur["latency"] - nxt["latency"]),
            "composite": enc_float(composite),
        })

    assignment: Dict[str, Dict] = {}
    selected_latency = target_latency = 0
    for wk in kernels:
        entry = frontiers[wk.name][position[wk.name]]
        assignment[wk.name] = {
            "id": entry["id"],
            "eta": entry["eta"],
            "error_ulps": entry["error_ulps"],
            "latency": entry["latency"],
            "select_job": entry["select_job"],
            "certificate": entry["certificate"],
            "program_digest": entry["program_digest"],
            "calls": wk.calls,
            "weight": enc_float(wk.weight),
        }
        selected_latency += wk.calls * entry["latency"]
        target_latency += wk.calls * body["kernels"][wk.name][
            "target_latency"]
    return {
        "budget": enc_float(budget),
        "bound": enc_float(composite),
        "assignment": assignment,
        "latency": selected_latency,
        "target_latency": target_latency,
        "speedup": enc_float(target_latency / selected_latency
                             if selected_latency else math.inf),
        "steps": steps,
    }
