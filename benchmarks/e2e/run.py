"""End-to-end benchmark: search, check, verify and campaign workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload search --seed 0 --seconds 20
    python3 benchmarks/e2e/run.py --workload all --runs 3 --seed 0 \\
        --trace --out e2e.jsonl

A run measures one workload for ``--seconds`` seconds as a sequence of
passes, each on inputs of its own and in a fresh child process (the JIT
compile cache and the checkpoint store are process-global, so a second
pass in the same process would run warm).  Before each pass an untraced
run also starts processes that only set up, so that set-up time is a
median over more processes.  Times are in reference seconds: scaled by
a calibration loop timed along the pass, since the host's CPU speed
drifts.  ``--trace`` instead runs each pass twice,
untraced and traced on the same inputs, and reports per-layer metrics
from the traced copies, the tracing overhead between the two, and fails
when named layers cover less than 90% of a traced pass's wall time.

Every operation's output is checked; the last line printed is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` and the exit
status is 1 when any check failed.  ``--out`` appends one JSON line per
run, the input of ``compare.py``.
"""

import time

_STARTED = time.perf_counter()  # before anything else is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics as M  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".e2e_out"
DEFAULT_PINS = HERE / "pins.json"
# A full-scale pass takes about 10 s; anything near this is a hang.
CHILD_TIMEOUT = 90.0
# Set-up-only processes an untraced run starts before each pass: start-up
# time (mostly the import of repro) spreads more from process to process
# than a pass's work does, so setup_s takes its median over more of them.
SETUP_PROBES = 2
# One BLAS thread, as for the single client every workload models.  With
# OpenBLAS's default of a thread per vCPU, importing numpy starts a pool
# (0.06 s) and each geweke_z call at the end of a validation takes 0.2 s
# instead of 1 ms, waiting on the other vCPU; that wait moved with the
# host's load and shifted the check workload by up to 20%.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def load_pins(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


# ---------------------------------------------------------------------------
# Child: one pass


def child_main(args) -> int:
    import workloads  # imports nothing from repro

    # Sample the host's speed from here on, so the samples cover the
    # import of repro, which counts as set-up.
    calibrator = workloads.Calibrator()
    calibrator.start()
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = workloads.run_pass(
        args.workload, args.scale, args.seed, args.pass_index,
        bool(args.traced), load_pins(args.pins), str(OUT / "stores"),
        _STARTED, calibrator, spans_path=args.spans,
        setup_only=args.setup_only)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Parent: a timed run of passes


def spawn(workload, scale, seed, index, traced, pins, spans,
          setup_only=False) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--scale", scale, "--seed", str(seed),
           "--pass-index", str(index), "--traced", str(int(traced)),
           "--pins", str(pins)]
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT,
                              env={**os.environ, **CHILD_ENV})
    except subprocess.TimeoutExpired:
        return {"error": f"pass {index} timed out after {CHILD_TIMEOUT:g}s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"pass {index} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-1500:]}"}
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, scale, pins) -> dict:
    """Passes for about ``seconds``; returns the run record.

    The passes last at least three quarters of ``seconds`` (so a slow
    host's 13 s pass is not a run of its own), then end with the one
    whose end is nearest to ``seconds``.  An untraced run's set-up-only
    processes (about 0.5 s each) come on top.
    """
    out_dir = OUT / workload
    if trace:
        out_dir.mkdir(parents=True, exist_ok=True)
    passes = []
    started = time.time()
    elapsed = 0.0
    index = 0
    while True:
        if not trace:
            passes.extend(spawn(workload, scale, seed, index, False, pins,
                                None, setup_only=True)
                          for _ in range(SETUP_PROBES))
        begin = time.perf_counter()
        # A traced run repeats each pass's inputs traced and untraced,
        # alternating which runs first so drift does not read as
        # overhead.
        order = ((False, True) if index % 2 == 0 else (True, False)) \
            if trace else (False,)
        for traced in order:
            spans = str(out_dir / "spans.json") \
                if traced and index == 0 else None
            passes.append(spawn(workload, scale, seed, index, traced, pins,
                                spans))
        index += 1
        elapsed += time.perf_counter() - begin
        if elapsed >= 0.75 * seconds and \
                elapsed + 0.5 * elapsed / index >= seconds:
            break
    record = summarize(workload, seed, trace, scale, passes)
    record["started"] = started
    if trace and record["table"]:
        (out_dir / "layers.txt").write_text(layer_table(record))
    return record


def summarize(workload, seed, trace, scale, passes) -> dict:
    """The run record of a run's passes (and set-up-only processes)."""
    probes = [p for p in passes if p.get("setup_only")]
    good = [p for p in passes if "error" not in p and not p.get("setup_only")]
    failures = [p["error"] for p in passes if "error" in p]
    failures += [f for p in good for f in p["failures"]]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    values = {}
    operations = M.sub_operation(plain)
    overheads = []
    if not trace:
        # Start-up to the first operation (every process), plus the
        # per-operation constructors of a pass.
        values["setup_s"] = \
            M.median([p["startup_s"] for p in plain + probes]) \
            + M.median([p["construct_s"] for p in plain])
        values["work_per_s"] = M.work_per_s(workload, plain)
        values["peak_rss_mb"] = M.median([p["rss_mb"] for p in plain])
    else:
        values.update(operations)
        for name, _ in M.LAYER:
            values[name] = M.mean([p["layers"][name] for p in traced])
        values["trace.attributed_ratio"] = min(
            (p["attributed"] for p in traced), default=0.0)
        # Each traced pass repeats the inputs of the untraced pass with
        # its index: the overhead is the median over those pairs.
        untraced = {p["pass"]: p for p in plain}
        overheads = [
            100.0 * (1.0 - M.ratio(
                M.work_per_s(workload, [p]),
                M.work_per_s(workload, [untraced[p["pass"]]])))
            for p in traced if p["pass"] in untraced]
        values["trace.overhead_pct"] = M.median(overheads)
        if values["trace.attributed_ratio"] < M.MIN_ATTRIBUTED:
            failures.append(
                f"named layers cover {values['trace.attributed_ratio']:.1%}"
                f" of a traced pass, below {M.MIN_ATTRIBUTED:.0%}")
    errors = sum(1 for p in passes if "error" in p)
    attempted = sum(p["attempted"] for p in good) + errors
    failed = sum(p["failed"] for p in good) + errors
    table = {}
    for p in traced:
        for name, row in p["table"].items():
            merged = table.setdefault(name, {"self_s": 0.0, "calls": 0})
            merged["self_s"] += row["self_s"] / len(traced)
            merged["calls"] += row["calls"] / len(traced)
    observed = {}
    for p in good:
        observed.update(p["observed"])
    return {
        "workload": workload, "seed": seed, "scale": scale,
        "trace": bool(trace), "nproc": os.cpu_count(),
        "passes": len(good), "setup_probes": len(probes),
        "attempted": attempted, "failed": failed,
        # Host CPU speed relative to the reference (median over passes).
        "speed": M.median([p["speed"] for p in good]),
        "correct": bool(good) and not failures and failed == 0,
        "failed_ops_ratio": M.ratio(failed, attempted),
        "failures": failures[:20], "metrics": values,
        # The single operations' rates, which compare.py also judges,
        # and the tracing overhead of every pair of passes.
        "operations": operations, "overhead_pct": overheads,
        # Seconds of one pass's constructors and operations, without the
        # benchmark's own checks: in reference and in plain seconds, to
        # show what calibration corrects.
        "pass_s": M.mean([p["user_s"] for p in plain]),
        "plain_pass_s": M.mean([p["plain_s"] for p in plain]),
        "wall_s": M.mean([p["wall_s"] for p in traced]),
        "table": table, "observed": observed,
    }


def layer_table(record) -> str:
    wall = record["wall_s"]
    rows = sorted(record["table"].items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"# {record['workload']}: self time per traced pass "
             f"(wall {wall:.3f} s)",
             f"{'span':40} {'self_s':>10} {'share':>7} {'calls':>10}"]
    for name, row in rows:
        lines.append(f"{name:40} {row['self_s']:10.4f} "
                     f"{M.ratio(row['self_s'], wall):7.1%} "
                     f"{row['calls']:10.0f}")
    return "\n".join(lines) + "\n"


def units() -> dict:
    return dict(M.END_TO_END + M.PER_LAYER)


def print_run(record) -> None:
    unit_of = units()
    print(f"== {record['workload']} seed={record['seed']} "
          f"scale={record['scale']} trace={int(record['trace'])} "
          f"passes={record['passes']} nproc={record['nproc']} "
          f"speed={record['speed']:.3f} "
          f"failed_ops_ratio={record['failed_ops_ratio']:.4g} "
          f"({record['failed']}/{record['attempted']})")
    for name, value in record["metrics"].items():
        print(f"  {name:40} {value:16.6g} {unit_of[name]}")
    if not record["trace"]:
        for name, value in record["operations"].items():
            if value:  # the operations of other workloads read 0
                print(f"  {name:40} {value:16.6g} {unit_of[name]}")
    if record["trace"] and record["table"]:
        print(layer_table(record), end="")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def final_line(records) -> dict:
    unit_of = units()
    by_name = {}
    multi = len({r["workload"] for r in records}) > 1
    for record in records:
        for name, value in record["metrics"].items():
            key = f"{record['workload']}/{name}" if multi else name
            by_name.setdefault(key, (name, []))[1].append(value)
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {key: {"value": M.median(values),
                          "unit": unit_of[name]}
                    for key, (name, values) in by_name.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=M.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; run i of --runs uses seed + i")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long one run measures (whole passes)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from traced passes")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append one JSON line per run")
    parser.add_argument("--pins", default=str(DEFAULT_PINS),
                        help="pinned outputs to check against")
    parser.add_argument("--update-pins", action="store_true",
                        help="write the outputs observed for pinnable "
                             "keys into --pins")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--spans", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} is missing; run the benchmark from "
              f"a full checkout of the repository", file=sys.stderr)
        return 2
    pins = Path(args.pins).resolve()
    names = M.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in names:
        for run in range(args.runs):
            record = run_workload(workload, args.seed + run, args.seconds,
                                  args.trace, args.scale, pins)
            print_run(record)
            records.append(record)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(record) + "\n")
    if args.update_pins:
        merged = load_pins(pins)
        for record in records:
            merged.update(record["observed"])
        pins.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    result = final_line(records)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
