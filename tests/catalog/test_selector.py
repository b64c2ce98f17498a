"""Workload selection: composition math, greedy walk, feasibility."""

import pytest

from repro.catalog.frontier import CatalogError
from repro.catalog.selector import (
    WorkloadKernel,
    parse_workload_spec,
    resolve_workload,
    select_for_budget,
)
from repro.core.serialize import dec_float


class TestWorkloads:
    def test_preset_resolves(self):
        kernels = resolve_workload("aek")
        assert {k.name for k in kernels} == \
            {"scale", "dot", "add", "delta"}

    def test_unknown_preset(self):
        with pytest.raises(CatalogError, match="unknown workload"):
            resolve_workload("raytracer9000")

    def test_mapping_and_list_forms(self):
        assert resolve_workload({"dot": 3}) == \
            [WorkloadKernel("dot", calls=3)]
        kernels = resolve_workload(
            ["add", {"name": "dot", "calls": 2, "weight": 0.5}])
        assert kernels[0] == WorkloadKernel("add")
        assert kernels[1].calls == 2 and kernels[1].weight == 0.5

    def test_duplicates_and_empty_are_rejected(self):
        with pytest.raises(CatalogError, match="duplicate"):
            resolve_workload(["dot", "dot"])
        with pytest.raises(CatalogError, match="empty"):
            resolve_workload([])

    def test_spec_parsing(self):
        assert parse_workload_spec("aek") == "aek"
        assert parse_workload_spec("dot:3,add") == {"dot": 3, "add": 1}
        with pytest.raises(CatalogError, match="bad workload item"):
            parse_workload_spec("dot:lots")
        with pytest.raises(CatalogError, match="empty workload"):
            parse_workload_spec(",")

    @pytest.mark.parametrize("spec", ["dot:-3", "dot:0", "add,dot:0"])
    def test_spec_call_counts_below_one_are_rejected(self, spec):
        with pytest.raises(CatalogError, match="calls >= 1"):
            parse_workload_spec(spec)

    def test_spec_repeated_kernel_is_rejected(self):
        # A mapping would keep only the last count; the list form of
        # resolve_workload rejects the same repeat.
        with pytest.raises(CatalogError, match="duplicate kernel 'dot'"):
            parse_workload_spec("dot:2,dot:3")
        with pytest.raises(CatalogError, match="duplicate"):
            parse_workload_spec("dot,add,dot")

    def test_spec_presets_are_unaffected(self):
        for preset in ("aek", "s3d"):
            assert parse_workload_spec(preset) == preset
            assert resolve_workload(parse_workload_spec(preset))


class TestSelect:
    def test_zero_budget_is_always_feasible(self, sweep_body):
        out = select_for_budget(sweep_body, {"dot": 1, "add": 1}, 0.0)
        assert dec_float(out["bound"]) == 0.0
        assert out["assignment"]["dot"]["id"] == "dot/eta=0"
        assert out["assignment"]["add"]["id"] == "add/eta=0"
        # Even at zero budget the proved-equivalent rewrites win.
        assert out["latency"] == 80 + 30
        assert out["target_latency"] == 100 + 60

    def test_budget_buys_the_frontier_walk(self, sweep_body):
        out = select_for_budget(sweep_body, {"dot": 1}, 4.0)
        assert out["assignment"]["dot"]["id"] == "dot/eta=10"
        out = select_for_budget(sweep_body, {"dot": 1}, 16.0)
        assert out["assignment"]["dot"]["id"] == "dot/eta=100"
        assert dec_float(out["bound"]) == 16.0
        assert [s["to"] for s in out["steps"]] == \
            ["dot/eta=10", "dot/eta=100"]

    def test_partial_budget_stops_short(self, sweep_body):
        out = select_for_budget(sweep_body, {"dot": 1}, 15.0)
        assert out["assignment"]["dot"]["id"] == "dot/eta=10"
        assert dec_float(out["bound"]) == 4.0

    def test_error_weights_scale_the_composition(self, sweep_body):
        # weight 4 makes the 4-ULP point cost 16 of the budget.
        workload = [WorkloadKernel("dot", calls=1, weight=4.0)]
        out = select_for_budget(sweep_body, workload, 15.0)
        assert out["assignment"]["dot"]["id"] == "dot/eta=0"
        out = select_for_budget(sweep_body, workload, 16.0)
        assert out["assignment"]["dot"]["id"] == "dot/eta=10"
        assert dec_float(out["bound"]) == 16.0

    def test_calls_weight_the_latency_not_the_error(self, sweep_body):
        out = select_for_budget(sweep_body, {"dot": 3, "add": 2}, 100.0)
        assert out["latency"] == 3 * 20 + 2 * 30
        assert out["target_latency"] == 3 * 100 + 2 * 60
        assert dec_float(out["bound"]) == 16.0

    def test_negative_budget_is_rejected(self, sweep_body):
        with pytest.raises(CatalogError, match=">= 0"):
            select_for_budget(sweep_body, {"dot": 1}, -1.0)

    def test_nan_budget_is_rejected(self, sweep_body):
        # Every comparison with NaN is false, so without the check the
        # greedy walk would take every step and serve the loosest
        # assignment as if the budget were infinite.
        with pytest.raises(CatalogError, match=">= 0, got nan"):
            select_for_budget(sweep_body, {"dot": 1}, float("nan"))

    def test_missing_kernel_is_rejected(self, sweep_body):
        with pytest.raises(CatalogError, match="not in catalog"):
            select_for_budget(sweep_body, {"cos": 1}, 1.0)

    def test_per_kernel_cap(self, sweep_body):
        out = select_for_budget(sweep_body, {"dot": 1}, 100.0,
                                max_error={"dot": 4.0})
        assert out["assignment"]["dot"]["id"] == "dot/eta=10"
        with pytest.raises(CatalogError, match="no frontier entry"):
            select_for_budget(sweep_body, {"dot": 1}, 100.0,
                              max_error={"dot": -1.0})

    def test_infeasible_budget_reports_floors(self, sweep_body):
        # Drop the zero-error entries so the kernel has an error floor.
        entries = sweep_body["kernels"]["dot"]["entries"]
        for entry in entries:
            if dec_float(entry["error_ulps"]) == 0.0:
                entry["on_frontier"] = False
        with pytest.raises(CatalogError, match="infeasible") as err:
            select_for_budget(sweep_body, {"dot": 1}, 1.0)
        assert "dot=4" in str(err.value)

    def test_deterministic_output(self, sweep_body):
        one = select_for_budget(sweep_body, {"dot": 2, "add": 1}, 10.0)
        two = select_for_budget(sweep_body, {"dot": 2, "add": 1}, 10.0)
        assert one == two
