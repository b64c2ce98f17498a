"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl
    python3 benchmarks/e2e/compare.py RUNS.jsonl > results.json

Given one file, it prints instead the median, quartiles and spread of
every metric per workload, the form ``results.json`` keeps.

Each file holds the run records ``run.py --out`` appends.  Runs pair up
by (workload, seed, trace); run the two sides alternately, each side
going first in half of the pairs (README.md shows the loop).  For each
workload and metric the table gives both sides' median and quartiles,
the change/parent ratio with its base, how many pairs the change won,
and a verdict.  The end-to-end metrics take their bounds from
BENCHMARK.json, and the single operations' rates behind ``work_per_s``
(the run records' ``operations``) take the ``work_per_s`` bound.  The
first rule that holds decides:

* ``regression``  -- the change median is worse by more than the bound;
* ``gain``        -- at least ten pairs, the change wins at least nine
                     tenths of them, and the medians differ by more than
                     the parent's quartile spread;
* ``better``      -- every change run reads better than every parent run;
* ``unresolved``  -- a side's quartile spread exceeds the bound, so
                     "unchanged" cannot be claimed;
* ``unchanged``   -- otherwise.

The failed-operations ratio (failed / attempted over all runs of a
side) must not rise: any rise is a ``regression``.  Exit status is 1
when anything regressed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

import metrics as M

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_WIN_SHARE = 0.9
MIN_GAIN_PAIRS = 10


def load_runs(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pair_runs(parent, change):
    """{(workload, trace): [(parent run, change run), ...]} by seed, and
    the number of pairs in which the parent ran first."""
    index = {(r["workload"], r["trace"], r["seed"]): r for r in change}
    pairs, parent_first = {}, 0
    for run in parent:
        other = index.get((run["workload"], run["trace"], run["seed"]))
        if other is None:
            continue
        pairs.setdefault((run["workload"], run["trace"]), []).append(
            (run, other))
        parent_first += run.get("started", 0) < other.get("started", 0)
    return pairs, parent_first


def verdict(p_vals, c_vals, better, bound):
    """Apply the comparison rules to one metric's paired values."""
    if bound is None:
        return None, "-"  # per-layer metrics carry no bound or direction
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(p_vals, c_vals) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_q1, c_med, c_q3 = quartiles(c_vals)
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return wins, "regression"
    if len(p_vals) >= MIN_GAIN_PAIRS and \
            wins >= MIN_WIN_SHARE * len(p_vals) and \
            sign * (c_med - p_med) > p_q3 - p_q1:
        return wins, "gain"
    if sign > 0 and min(c_vals) > max(p_vals) or \
            sign < 0 and max(c_vals) < min(p_vals):
        return wins, "better"
    spread = max(abs(p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 abs(c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    if spread > bound:
        return wins, "unresolved"
    return wins, "unchanged"


def failed_ratio(runs):
    return M.ratio(sum(r["failed"] for r in runs),
                   sum(r["attempted"] for r in runs))


def compare(parent, change, spec):
    """Rows of the comparison table and whether anything regressed."""
    meta = {m["name"]: m for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        if m["name"] in dict(M.SUB_OPERATION):
            meta[m["name"]] = {**m, "bound": meta["work_per_s"]["bound"]}
    units = {m["name"]: m["unit"] for m in
             spec["end_to_end"] + spec["per_layer"]}
    pairs, parent_first = pair_runs(parent, change)
    rows, regressed = [], False
    for (workload, trace), runs in sorted(pairs.items()):
        values = [({**p["operations"], **p["metrics"]},
                   {**c["operations"], **c["metrics"]}) for p, c in runs]
        names = [n for n in values[0][0]
                 if all(n in p and n in c for p, c in values)
                 and any(p[n] or c[n] for p, c in values)]
        for name in names:
            p_vals = [p[name] for p, _ in values]
            c_vals = [c[name] for _, c in values]
            m = meta.get(name, {})
            wins, word = verdict(p_vals, c_vals, m.get("better", "higher"),
                                 m.get("bound"))
            regressed |= word == "regression"
            rows.append({
                "workload": workload, "trace": trace, "metric": name,
                "unit": units.get(name, ""), "pairs": len(runs),
                "parent": quartiles(p_vals), "change": quartiles(c_vals),
                "wins": wins, "verdict": word})
        p_ratio = failed_ratio([p for p, _ in runs])
        c_ratio = failed_ratio([c for _, c in runs])
        word = "regression" if c_ratio > p_ratio else "unchanged"
        regressed |= word == "regression"
        rows.append({
            "workload": workload, "trace": trace,
            "metric": "failed_ops_ratio", "unit": "ratio",
            "pairs": len(runs), "parent": (p_ratio,) * 3,
            "change": (c_ratio,) * 3, "wins": None, "verdict": word})
    return rows, regressed, parent_first, sum(len(r) for r in pairs.values())


def summarize(runs, spec):
    """Median, quartiles and spread ((q3 - q1) / median) of every metric
    per workload, with the bounds and the host's ``nproc``.

    Also: the same for the seconds of a pass, in reference and in plain
    (uncalibrated) seconds, and for traced runs the quartiles of the
    tracing overhead over every pair of passes of all the runs.
    """
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds.update((name, bounds["work_per_s"]) for name, _ in M.SUB_OPERATION)
    units = {m["name"]: m["unit"] for m in
             spec["end_to_end"] + spec["per_layer"]}
    units["pass_s"] = units["plain_pass_s"] = "s"

    def stats(values, unit):
        q1, med, q3 = quartiles(values)
        return {"unit": unit, "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / abs(med) if med else 0.0}

    groups = {}
    for run in runs:
        groups.setdefault((run["workload"], run["trace"]), []).append(run)
    out = {}
    for (workload, trace), group in sorted(groups.items()):
        values = [{**r["operations"], **r["metrics"], "pass_s": r["pass_s"],
                   "plain_pass_s": r["plain_pass_s"]} for r in group]
        metrics = {}
        for name in values[0]:
            column = [v[name] for v in values]
            if not any(column):
                continue  # another workload's operation
            metrics[name] = stats(column, units.get(name, ""))
            if name in bounds:
                metrics[name]["bound"] = bounds[name]
        summary = {
            "runs": len(group), "seeds": sorted(r["seed"] for r in group),
            "nproc": group[0]["nproc"],
            "speed": statistics.median(r["speed"] for r in group),
            "attempted": sum(r["attempted"] for r in group),
            "failed": sum(r["failed"] for r in group),
            "metrics": metrics}
        if trace:
            pairs = [o for r in group for o in r["overhead_pct"]]
            q1, med, q3 = quartiles(pairs)
            summary["overhead_pct_pairs"] = {"pairs": len(pairs), "q1": q1,
                                             "median": med, "q3": q3}
        out[workload + (" (traced)" if trace else "")] = summary
    return out


def format_rows(rows):
    def side(q):
        return f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [f"{'workload':9} {'metric':38} {'parent median [q1, q3]':32} "
             f"{'change median [q1, q3]':32} {'change/parent (base)':34} "
             f"{'wins':>7}  verdict"]
    for r in rows:
        base = r["parent"][1]
        ratio = (f"{r['change'][1] / base:.3f}x of {base:.6g} {r['unit']}"
                 if base else f"n/a (base 0 {r['unit']})")
        wins = "-" if r["wins"] is None else f"{r['wins']}/{r['pairs']}"
        name = r["workload"] + (" (traced)" if r["trace"] else "")
        lines.append(f"{name:9} {r['metric']:38} {side(r['parent']):32} "
                     f"{side(r['change']):32} {ratio:34} {wins:>7}  "
                     f"{r['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    if args.change is None:
        print(json.dumps(summarize(load_runs(args.parent), spec), indent=1))
        return 0
    rows, regressed, parent_first, total = compare(
        load_runs(args.parent), load_runs(args.change), spec)
    if not rows:
        print("no runs pair up (same workload, trace and seed)")
        return 2
    print(format_rows(rows))
    if abs(2 * parent_first - total) > 1:
        print(f"warning: the parent ran first in {parent_first} of "
              f"{total} pairs; alternate which side runs first")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
