"""Tests for the compiled-program runtime: selection, reporting, transfers."""

import numpy as np
import pytest

from repro import (AdapticOptions, Filter, GTX_480, Pipeline, StreamProgram,
                   apps, api)
from repro.compiler import AdapticCompiler, InputLocation, RunOptions, runtime
from repro.compiler.runtime import (FANOUT_MIN_ELEMENTS, FANOUT_MIN_ITEMS,
                                    batch_threads)
from repro.errors import SelectionError
from repro.gpu import Device, TESLA_C2050
from repro.perfmodel import geometric_points

from workloads import SCALE_SRC, SUM_SRC


def sum_program(**kwargs):
    defaults = dict(params=["n", "r"], input_size="n*r",
                    input_ranges={"n": (256, 1 << 20)})
    defaults.update(kwargs)
    return StreamProgram(Filter(SUM_SRC, pop="n", push=1), **defaults)


class TestRunResult:
    def test_selection_report_fields(self, rng):
        compiled = api.compile(sum_program())
        data = rng.standard_normal(128)
        result = compiled.run(data, {"n": 128, "r": 1})
        (sel,) = result.selections
        assert sel.kind == "reduction"
        assert sel.predicted_seconds > 0
        assert "actor_segmentation" in sel.optimizations or sel.optimizations
        assert result.predicted_total_seconds > \
            result.predicted_kernel_seconds
        assert result.strategy_of(sel.segment) == sel.strategy
        with pytest.raises(KeyError):
            result.strategy_of("nonexistent")

    def test_run_reuses_supplied_device(self, rng):
        compiled = api.compile(sum_program())
        device = Device(TESLA_C2050)
        compiled.run(rng.standard_normal(64), {"n": 64, "r": 1},
                     device=device)
        assert device.launch_count >= 1
        assert device.transfer_seconds > 0


class TestTransferAccounting:
    def test_transfer_scales_with_input(self):
        compiled = api.compile(sum_program())
        small = compiled.transfer_seconds({"n": 1 << 10, "r": 1})
        large = compiled.transfer_seconds({"n": 1 << 22, "r": 1})
        assert large > 10 * small

    def test_predicted_with_and_without_transfers(self):
        compiled = api.compile(sum_program())
        params = {"n": 1 << 16, "r": 1}
        with_t = compiled.predicted_seconds(params)
        without = compiled.predicted_seconds(params,
                                             include_transfers=False)
        assert with_t > without


class TestRangeReport:
    def test_single_axis_subranges(self):
        compiled = api.compile(sum_program())
        report = compiled.range_report(samples=10, extra_params={"r": 1})
        assert "->" in report
        assert "reduce.two_kernel" in report
        # The reported runs must cover the endpoints.
        assert "256" in report and str(1 << 20) in report

    def test_no_ranges_declared(self):
        prog = sum_program(input_ranges={})
        compiled = api.compile(prog)
        assert "no input ranges" in compiled.range_report()

    def test_multi_axis_lists_points(self):
        prog = sum_program(input_ranges={"n": (256, 4096),
                                         "r": (1, 64)})
        compiled = api.compile(prog)
        report = compiled.range_report(samples=3)
        assert "segment" in report and "->" in report

    def test_reports_what_select_picks(self):
        """With placement, raw kernel cost ranks the GPU map variants
        first at large n, but hops make select() keep the host plan; the
        report must list select()'s picks."""
        prog = StreamProgram(Filter(SCALE_SRC, pop="n", push="n"),
                             params=["n", "a"], input_size="n",
                             input_ranges={"n": (16, 1 << 20)})
        compiled = api.compile(prog,
                               options=AdapticOptions(placement=True))
        report = compiled.range_report(extra_params={"a": 2.0})
        picks = {compiled.select({"n": n, "a": 2.0})[0].strategy
                 for n in geometric_points(16, 1 << 20, 8)}
        reported = {line.rsplit(" -> ", 1)[1]
                    for line in report.splitlines() if " -> " in line}
        assert reported == picks
        assert f"  n in [16, {1 << 20}] -> cpu.vector_map" in report


class TestMultiSegmentExecution:
    def test_chain_runs_and_accounts_each_segment(self, rng):
        prog = StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                     Filter(SUM_SRC, pop="n", push=1)),
            params=["n", "a"], input_size="n")
        options = AdapticOptions(integration=False)
        compiled = AdapticCompiler(TESLA_C2050, options).compile(prog)
        assert len(compiled.segments) == 2
        data = rng.standard_normal(96)
        result = compiled.run(data, {"n": 96, "a": 2.0})
        assert len(result.selections) == 2
        assert result.output[0] == pytest.approx(2.0 * data.sum())

    def test_force_per_segment(self, rng):
        prog = StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                     Filter(SUM_SRC, pop="n", push=1)),
            params=["n", "a"], input_size="n")
        options = AdapticOptions(integration=False)
        compiled = AdapticCompiler(TESLA_C2050, options).compile(prog)
        seg0, seg1 = compiled.segments
        data = rng.standard_normal(64)
        result = compiled.run(
            data, {"n": 64, "a": 0.5},
            force={seg1.name: "reduce.two_kernel"})
        assert result.selections[1].strategy == "reduce.two_kernel"


class TestDeviceResidentInput:
    """Regression: ``run()`` must honor ``RunOptions(location=DEVICE)``."""

    def _params(self):
        # Wide-short shape: host-side selection restructures to the
        # transposed layout; device-resident data cannot be restructured.
        return {"n": 8, "r": 1 << 12}

    def test_run_threads_input_on_host_through_selection(self, rng):
        compiled = api.compile(sum_program())
        params = self._params()
        data = rng.standard_normal(params["n"] * params["r"])
        host = compiled.run(data, params)
        device = compiled.run(data, params,
                              options=RunOptions(location=InputLocation.DEVICE))
        assert host.selections[0].strategy.endswith("transposed")
        assert not device.selections[0].strategy.endswith("transposed")

    def test_device_resident_run_is_still_correct(self, rng):
        compiled = api.compile(sum_program())
        params = self._params()
        data = rng.standard_normal(params["n"] * params["r"])
        host = compiled.run(data, params)
        device = compiled.run(data, params,
                              options=RunOptions(location=InputLocation.DEVICE))
        np.testing.assert_allclose(device.output, host.output, rtol=1e-9)

    def test_canonical_plan_identical_on_both_paths(self, rng):
        # A canonical-layout plan needs no restructuring, so host and
        # device-resident execution must agree exactly.
        compiled = api.compile(sum_program())
        seg = compiled.segments[0]
        canonical = next(p for p in seg.plans
                         if p.input_layout in ("interleaved", "rows"))
        data = rng.standard_normal(64 * 4)
        params = {"n": 64, "r": 4}
        force = {seg.name: canonical.strategy}
        host = compiled.run(data, params, force=force)
        device = compiled.run(data, params, force=force,
                              options=RunOptions(location=InputLocation.DEVICE))
        np.testing.assert_array_equal(host.output, device.output)

    def test_forced_host_staged_plan_rejects_device_input(self, rng):
        """``force=`` obeys the layout rule selection obeys: a plan that
        needs host-side restructuring cannot run on device-resident
        data (it used to, returning an output off by ~15)."""
        compiled = api.compile(apps.tmv.build())
        matrix, vec, params = apps.tmv.make_input(512, 8, rng)
        force = {"seg0_tmv_row": "reduce.thread_per_array+transposed"}
        host = compiled.run(matrix, params, force=force)
        np.testing.assert_allclose(
            host.output, apps.tmv.reference(matrix, vec, 512, 8))
        with pytest.raises(SelectionError) as err:
            compiled.run(matrix, params, force=force,
                         options=RunOptions(location=InputLocation.DEVICE))
        assert err.value.segment == "seg0_tmv_row"
        assert err.value.plan == "reduce.thread_per_array+transposed"


class TestDispatchTables:
    def test_prune_variants_bakes_tables(self):
        compiled = api.compile(sum_program())
        compiled.prune_variants(extra_params={"r": 1})
        assert any(seg.dispatch is not None for seg in compiled.segments)
        description = compiled.describe()
        assert "dispatch table over n in [256, 1048576]" in description
        assert "selection stats" in description
        tables = compiled.describe(tables=True)
        assert "      n in [256, " in tables and " -> reduce." in tables

    def test_in_range_select_uses_table(self):
        compiled = api.compile(sum_program())
        compiled.prune_variants(extra_params={"r": 1})
        before = compiled.stats.snapshot()
        compiled.select({"n": 1 << 15, "r": 1})
        delta = compiled.stats.since(before)
        assert delta.table_hits == 1
        assert delta.model_evals == 0

    def test_range_report_includes_stats(self):
        compiled = api.compile(sum_program())
        assert "selection stats:" in compiled.range_report(
            samples=4, extra_params={"r": 1})


#: Per-segment ``(lo, hi, winner)`` runs that the former dedicated
#: one-axis sweep produced for these bakes; a one-axis region table must
#: reproduce them leaf for leaf.  Keys: (app, placement, pins, samples).
ONE_AXIS_GOLDEN = {
    ("sdot", False, (("r", 1),), 6): [[
        (1024, 1792, "reduce.single_kernel+row_soa"),
        (1793, 12288, "reduce.two_kernel+row_soa@64"),
        (12289, 81920, "reduce.two_kernel+row_soa@128"),
        (81921, 4194304, "reduce.two_kernel+row_soa")]],
    ("sdot", False, (("r", 1),), 8): [[
        (1024, 1792, "reduce.single_kernel+row_soa"),
        (1793, 12288, "reduce.two_kernel+row_soa@64"),
        (12289, 81920, "reduce.two_kernel+row_soa@128"),
        (81921, 4194304, "reduce.two_kernel+row_soa")]],
    ("tmv", False, (("rows", 4096),), 6): [[
        (4, 153, "reduce.thread_per_array+transposed"),
        (154, 320, "reduce.single_kernel@64"),
        (321, 3968, "reduce.single_kernel@128"),
        (3969, 1048576, "reduce.rows_merged[4]")]],
    ("tmv", False, (("rows", 4096),), 8): [[
        (4, 153, "reduce.thread_per_array+transposed"),
        (154, 320, "reduce.single_kernel@64"),
        (321, 4224, "reduce.single_kernel@128"),
        (4225, 1048576, "reduce.rows_merged[4]")]],
    ("imagepipe", True, (("height", 256),), 6): [
        [(32, 135, "cpu.vector_map"), (136, 145, "map.grid_stride"),
         (146, 792, "map.thread_merged[4]"),
         (793, 4096, "map.thread_merged[16]")],
        [(32, 64, "stencil.super_tile"), (65, 79, "stencil.global"),
         (80, 96, "stencil.super_tile@32x16"),
         (97, 4096, "stencil.super_tile")]],
    ("imagepipe", True, (("height", 256),), 8): [
        [(32, 135, "cpu.vector_map"), (136, 145, "map.grid_stride"),
         (146, 792, "map.thread_merged[4]"),
         (793, 4096, "map.thread_merged[16]")],
        [(32, 4096, "stencil.super_tile")]],
    ("convolution", False, (("width", 256),), 6): [
        [(16384, 16777216, "stencil.global")],
        [(16384, 16777216, "stencil.super_tile")]],
    ("convolution", False, (("width", 256),), 8): [
        [(16384, 16777216, "stencil.global")],
        [(16384, 41215, "stencil.super_tile"),
         (41216, 43263, "stencil.super_tile@128x4"),
         (43264, 53503, "stencil.super_tile@32x16"),
         (53504, 57599, "stencil.super_tile"),
         (57600, 58623, "stencil.super_tile@128x4"),
         (58624, 61695, "stencil.super_tile@32x16"),
         (61696, 16777216, "stencil.super_tile")]],
}


class TestOneAxisTables:
    @pytest.mark.parametrize("case", sorted(ONE_AXIS_GOLDEN),
                             ids=lambda c: f"{c[0]}-{c[2][0][0]}-s{c[3]}")
    def test_leaves_match_golden_subranges(self, case):
        app, placed, pins, samples = case
        options = AdapticOptions(placement=True) if placed else None
        compiled = AdapticCompiler(TESLA_C2050, options).compile(
            apps.BUILDERS[app][0]())
        compiled.bake_decision_tables(samples=samples,
                                      extra_params=dict(pins))
        got = []
        for segment in compiled.segments:
            (axis,) = segment.dispatch.axes
            got.append([(box[axis][0], box[axis][1], winner)
                        for box, winner in segment.dispatch.region.leaves()])
        assert got == ONE_AXIS_GOLDEN[case]

    def test_every_unpinned_axis_is_a_table_axis(self):
        compiled = AdapticCompiler(TESLA_C2050).compile(apps.tmv.build())
        assert compiled.bake_decision_tables(
            samples=4, extra_params={"cols": 64}) == 1
        assert compiled.segments[0].dispatch.axes == ("rows",)
        assert compiled.bake_decision_tables(samples=4) == 1
        assert compiled.segments[0].dispatch.axes == ("cols", "rows")
        # Every axis pinned: nothing left to sweep.
        assert compiled.bake_decision_tables(
            samples=4, extra_params={"cols": 64, "rows": 64}) == 0


class TestThirdTarget:
    def test_gtx480_compiles_and_runs(self, rng):
        compiled = AdapticCompiler(GTX_480).compile(sum_program())
        data = rng.standard_normal(256)
        result = compiled.run(data, {"n": 256, "r": 1})
        assert result.output[0] == pytest.approx(data.sum())

    def test_targets_can_disagree_on_selection(self):
        # Different shared-memory and SM counts can shift break-evens;
        # at minimum both targets must produce valid selections.
        for spec in (TESLA_C2050, GTX_480):
            compiled = AdapticCompiler(spec).compile(sum_program())
            plan = compiled.select({"n": 1 << 18, "r": 1})[0]
            assert plan.predicted_seconds(compiled.model,
                                          {"n": 1 << 18, "r": 1}) > 0


class TestBatchExecutorRule:
    """``run_batch`` picks serial or threads from the batch it is given:
    threads only for ``FANOUT_MIN_ITEMS`` items per distinct binding
    whose mean has ``FANOUT_MIN_ELEMENTS`` input elements, on 2+ usable
    CPUs."""

    CPUS = (1, 2, 4, 64)

    def test_serve_tmv_groups_stay_serial(self):
        # serve-tmv sends groups of at most 8 items of at most 2^10.
        for cpus in self.CPUS:
            for items in range(1, 9):
                assert batch_threads([1 << 10] * items, 1, cpus) == 1

    def test_health_sweep_stays_serial(self):
        sizes = [rows * cols for rows, cols in apps.tmv.shape_sweep(1 << 10)]
        for cpus in self.CPUS:
            assert batch_threads(sizes, len(sizes), cpus) == 1

    def test_large_batches_fan_out_on_two_or_more_cpus(self):
        sizes = [FANOUT_MIN_ELEMENTS] * 16
        assert batch_threads(sizes, 1, 1) == 1
        for cpus in self.CPUS[1:]:
            assert batch_threads(sizes, 1, cpus) == min(cpus, 16)
        # The mean item decides, and one item never fans out.
        rest = [FANOUT_MIN_ELEMENTS] * (FANOUT_MIN_ITEMS - 2)
        below = rest + [FANOUT_MIN_ELEMENTS, FANOUT_MIN_ELEMENTS - 1]
        assert batch_threads(below, 1, 4) == 1
        uneven = rest + [2 * FANOUT_MIN_ELEMENTS - 1, 1]
        assert batch_threads(uneven, 1, 4) == 4
        assert batch_threads([1 << 30], 1, 4) == 1

    def test_each_binding_needs_its_own_items(self):
        """A fan-out warms every distinct binding serially first, so each
        binding must bring ``FANOUT_MIN_ITEMS`` items."""
        big = FANOUT_MIN_ELEMENTS
        assert batch_threads([big] * FANOUT_MIN_ITEMS, 1, 2) == 2
        assert batch_threads([big] * (FANOUT_MIN_ITEMS - 1), 1, 2) == 1
        assert batch_threads([big] * FANOUT_MIN_ITEMS, 2, 2) == 1
        assert batch_threads([big] * (2 * FANOUT_MIN_ITEMS), 2, 2) == 2
        assert batch_threads([big] * (2 * FANOUT_MIN_ITEMS), 3, 64) == 1

    @pytest.mark.parametrize("cpus, bindings, runs",
                             [(1, 1, 16), (2, 1, 17), (2, 2, 16)])
    def test_run_batch_follows_the_rule(self, rng, monkeypatch, cpus,
                                        bindings, runs):
        """``run_batch`` hands the rule its item sizes, distinct
        bindings and usable CPUs.  A fan-out warms its binding first
        (one extra run); a serial batch does not."""
        monkeypatch.setattr(runtime, "usable_cpus", lambda: cpus)
        # Small items keep the test fast; the rule's size bar moves.
        monkeypatch.setattr(runtime, "FANOUT_MIN_ELEMENTS", 256)
        compiled = api.compile(sum_program())
        items = FANOUT_MIN_ITEMS
        params_list = [{"n": 256, "r": 1 + i % bindings}
                       for i in range(items)]
        inputs = [rng.standard_normal(256 * p["r"]) for p in params_list]
        before = compiled.stats.snapshot()
        outcome = compiled.run_batch(
            inputs, params_list,
            options=RunOptions(exec_mode=api.ExecMode.VECTORIZED))
        assert outcome.ok
        assert compiled.stats.since(before).runs == runs
        for data, result in zip(inputs, outcome.results):
            np.testing.assert_allclose(result.output,
                                       data.reshape(-1, 256).sum(axis=1))
