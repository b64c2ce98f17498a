"""Self-test of the end-to-end benchmark, at smoke scale.

    pytest benchmarks/e2e
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import metrics as M  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
         "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def test_declared_metrics_match_the_code():
    end_to_end, per_layer = _declared()
    assert end_to_end == dict(M.END_TO_END)
    assert per_layer == dict(M.PER_LAYER)


@pytest.mark.parametrize("trace", (0, 1))
def test_emitted_names_and_units_match_benchmark_json(trace):
    code, result = _bench("--workload", "all", "--trace", str(trace))
    assert code == 0 and result["correct"], result
    assert result["attempted"] > 0 and result["failed"] == 0
    declared = _declared()[trace]
    for workload in M.WORKLOADS:
        emitted = {key.split("/", 1)[1]: value["unit"]
                   for key, value in result["metrics"].items()
                   if key.startswith(workload + "/")}
        assert emitted == declared, workload
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", M.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for scale in ("smoke", "full"):
        first = workloads.make_inputs(workload, scale, 3, 1)
        assert first == workloads.make_inputs(workload, scale, 3, 1)
        json.dumps(first)  # plain data: the program sees nothing else
        if workload != "verify":  # branch-and-bound has no seed
            assert first != workloads.make_inputs(workload, scale, 4, 1)
            assert first != workloads.make_inputs(workload, scale, 3, 2)


def test_self_time_of_a_hand_built_nest():
    # root [0, 10] > a [1, 4] > leaf [2, 3];  root > b [5, 9]
    spans = [("root", 0.0, 10.0, -1, 0, 0, 1),
             ("a", 1.0, 4.0, 0, 0, 0, 1),
             ("leaf", 2.0, 3.0, 1, 0, 0, 1),
             ("b", 5.0, 9.0, 0, 0, 0, 2)]
    table = self_times(spans)
    assert {n: r["self_s"] for n, r in table.items()} == \
        {"root": 3.0, "a": 2.0, "leaf": 1.0, "b": 4.0}
    assert sum(r["self_s"] for r in table.values()) == 10.0
    assert table["b"]["units"] == 2


def test_nested_spans_of_one_name_count_once():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "transfer")
    outer = tracer.wrap(lambda: inner(), "transfer")
    tracer.wrap(lambda: outer(), "commit")()
    # clock: commit 0, outer 1, inner 2-3, outer 4, commit 5
    (spans,) = tracer.threads()
    assert [s[:4] for s in spans] == [("commit", 0.0, 5.0, -1),
                                      ("transfer", 1.0, 4.0, 0),
                                      ("transfer", 2.0, 3.0, 1)]
    table = self_times(spans)
    assert table["transfer"]["self_s"] == 3.0
    assert table["commit"]["self_s"] == 2.0


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]  # quartile spread 5.5
    assert compare.verdict(parent, [p * 1.2 for p in parent],
                           "higher", 0.1) == (10, "gain")
    assert compare.verdict(parent, [p * 0.8 for p in parent],
                           "higher", 0.1) == (0, "regression")
    assert compare.verdict(parent, parent[::-1], "higher", 0.1)[1] == \
        "unchanged"
    # Medians equal, but the change's quartiles are too far apart to
    # call it unchanged within a 10% bound.
    noisy = [60.0, 150.0, 70.0, 140.0, 104.0, 105.0, 80.0, 130.0, 90.0,
             120.0]
    assert compare.verdict(parent, noisy, "higher", 0.1)[1] == "unresolved"
    # A wide spread does not hide a median 50% worse.
    assert compare.verdict(parent, [p * 0.5 for p in noisy],
                           "higher", 0.1)[1] == "regression"
    # Lower is better: 8 wins of 10 is no gain, however large the gap.
    faster = [p * 0.5 for p in parent[:8]] + [200.0, 200.0]
    assert compare.verdict(parent, faster, "lower", 0.1)[1] != "gain"
    # Three pairs are too few for a gain, however clear.
    assert compare.verdict(parent[:3], [p * 2 for p in parent[:3]],
                           "higher", 0.1) == (3, "better")
    # Every change run better than every parent run beats a wide spread.
    assert compare.verdict(noisy[:9], [200.0 + p for p in noisy[:9]],
                           "higher", 0.1) == (9, "better")


def _record(seed, work_per_s, validate_rate, failed=0):
    return {"workload": "check", "trace": False, "seed": seed,
            "started": seed, "attempted": 10, "failed": failed,
            "metrics": {"work_per_s": work_per_s},
            "operations": {"check.validate_evals_per_s": validate_rate,
                           "search.proposals_per_s": 0.0}}


def test_compare_judges_operations_and_failures():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = [_record(s, 100.0 + s, 1000.0 + s) for s in range(10)]

    def verdicts(change):
        rows, regressed, _, _ = compare.compare(parent, change, spec)
        return {r["metric"]: r["verdict"] for r in rows}, regressed

    same, regressed = verdicts([_record(s, 100.0 + s, 1000.0 + s)
                                for s in range(10)])
    assert not regressed and "search.proposals_per_s" not in same
    assert same["check.validate_evals_per_s"] == "unchanged"
    # One operation 30% slower is a regression of its own.
    slow, regressed = verdicts([_record(s, 100.0 + s, 700.0 + s)
                                for s in range(10)])
    assert regressed and slow["check.validate_evals_per_s"] == "regression"
    assert slow["work_per_s"] == "unchanged"
    # One failed operation more than the parent is a regression.
    failing, regressed = verdicts([_record(s, 100.0 + s, 1000.0 + s,
                                           failed=int(s == 3))
                                   for s in range(10)])
    assert regressed and failing["failed_ops_ratio"] == "regression"


def _halve_bounds(cert):
    return dataclasses.replace(
        cert, leaf_bounds=tuple(b / 2 for b in cert.leaf_bounds),
        bound_ulps=cert.bound_ulps / 2)


def test_tampered_certificate_fails_the_run(tmp_path):
    calibrator = workloads.Calibrator()
    calibrator.start()
    result = workloads.run_pass("verify", "smoke", 0, 0, False, {},
                                str(tmp_path), workloads.clock(),
                                calibrator, tamper=_halve_bounds)
    assert result["failed"] == result["attempted"] > 0
    assert any("certificate rejected" in f for f in result["failures"])
    record = run.summarize("verify", 0, 0, "smoke", [result])
    assert not record["correct"]
    assert not run.final_line([record])["correct"]


def test_wrong_pin_fails_the_run_and_its_exit_code(tmp_path):
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"smoke/check/exhaustive/exp": "-1.0"}))
    code, result = _bench("--workload", "check", "--pins", str(pins))
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] > 1


def test_missing_program_exits_without_a_result(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "search",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
