"""Heterogeneous placement gates.

Placement as a selection axis: direction-aware transfer pricing (the
DEVICE-binding H2D double-charge regression), cost-modeled CPU/GPU
splits inside a segment chain with zero-evaluation baked dispatch,
bit-identity of mixed placements against the all-GPU chain and the
coroutine oracle, placement tables riding artifact bundles, priced
degrade-to-CPU, per-device calibration namespaces, the degraded-item
select-stage attribution fix, and the small-window latency-percentile
clamp.
"""

import numpy as np
import pytest

from repro import api
from repro.apps import imagepipe
from repro.compiler.exprgen import COMPILE_COUNTER, SOURCE_REGISTRY
from repro.compiler.runtime import InputLocation
from repro.compiler.segments import RegionDispatch
from repro.faults import FaultInjector, FaultPlan
from repro.gpu import Device
from repro.perfmodel import (CalibrationStore, hop_seconds,
                             layout_transform_seconds)
from repro.serve.metrics import ServeMetrics, percentile

pytestmark = pytest.mark.placement

#: Narrowed box shared by the compiled fixtures (keeps sweeps fast).
RANGES = {"width": (32, 512), "height": (32, 512)}


@pytest.fixture(autouse=True)
def _isolated_source_registry():
    """Drop bundle-carried sources after every test (see test_multiaxis)."""
    yield
    SOURCE_REGISTRY.clear_loaded()


@pytest.fixture(scope="module")
def placed_imagepipe():
    program = imagepipe.build(input_ranges=RANGES)
    return api.compile(program, options=api.AdapticOptions(
        prune=True, placement=True))


@pytest.fixture(scope="module")
def legacy_imagepipe():
    program = imagepipe.build(input_ranges=RANGES)
    return api.compile(program, options=api.AdapticOptions(prune=True))


class TestTransferDirection:
    """Satellite: transfer cost must key on placement and direction."""

    def test_device_binding_is_cheaper_than_host(self, legacy_imagepipe):
        params = {"width": 64, "height": 64}
        host = legacy_imagepipe.transfer_seconds(params)
        device = legacy_imagepipe.transfer_seconds(
            params, location=InputLocation.DEVICE)
        # A device-resident input pays no entry H2D; it used to be
        # charged the full H2D + D2H regardless of direction.
        assert device < host
        n_out = legacy_imagepipe.segments[-1].output_size(params)
        assert device == pytest.approx(
            hop_seconds(n_out * legacy_imagepipe.wire_dtype.itemsize))

    def test_predicted_seconds_differ_by_location(self, legacy_imagepipe):
        params = {"width": 64, "height": 64}
        host = legacy_imagepipe.predicted_seconds(params)
        device = legacy_imagepipe.predicted_seconds(
            params, input_on_host=InputLocation.DEVICE)
        assert device < host

    def test_host_all_gpu_value_is_bit_identical_legacy(
            self, legacy_imagepipe):
        # The legacy call shape (host input, all-GPU chain) prices
        # exactly hop(in) + hop(out), bit for bit what the device
        # records for the run.
        data, params = imagepipe.make_input(48, 32)
        n_in = legacy_imagepipe.segments[0].input_size(params)
        n_out = legacy_imagepipe.segments[-1].output_size(params)
        itemsize = legacy_imagepipe.wire_dtype.itemsize
        priced = legacy_imagepipe.transfer_seconds(params)
        assert priced == \
            hop_seconds(n_in * itemsize) + hop_seconds(n_out * itemsize)
        device = Device(legacy_imagepipe.spec)
        result = legacy_imagepipe.run(data, params, device=device)
        assert [(t.direction, t.nbytes) for t in device.transfers] == \
            [("h2d", n_in * itemsize), ("d2h", n_out * itemsize)]
        assert result.transfer_seconds == priced == device.transfer_seconds

    def test_run_total_does_not_double_count(self, legacy_imagepipe):
        data, params = imagepipe.make_input(48, 48)
        result = legacy_imagepipe.run(data, params)
        assert result.predicted_total_seconds == pytest.approx(
            result.predicted_kernel_seconds + result.transfer_seconds)
        assert result.transfer_seconds == \
            legacy_imagepipe.transfer_seconds(params)

    def test_cpu_terminated_chain_pays_no_exit_hop(self, placed_imagepipe):
        params = {"width": 32, "height": 32}
        all_cpu = placed_imagepipe.transfer_seconds(
            params, placements=("cpu", "cpu"))
        assert all_cpu == 0.0
        mixed = placed_imagepipe.transfer_seconds(
            params, placements=("cpu", "gpu"))
        n = placed_imagepipe.segments[1].input_size(params)
        n_out = placed_imagepipe.segments[-1].output_size(params)
        itemsize = placed_imagepipe.wire_dtype.itemsize
        assert mixed == pytest.approx(hop_seconds(n * itemsize)
                                      + hop_seconds(n_out * itemsize))


class TestPlacementSelection:
    def test_small_shapes_route_to_cpu_with_zero_evals(
            self, placed_imagepipe):
        before = placed_imagepipe.stats.snapshot()
        plans = placed_imagepipe.select({"width": 32, "height": 32})
        delta = placed_imagepipe.stats.since(before)
        assert plans[0].placement == "cpu"
        assert plans[0].strategy == "cpu.vector_map"
        assert delta.runtime_evals == 0
        assert delta.table_hits == len(placed_imagepipe.segments)

    def test_large_shapes_stay_on_gpu(self, placed_imagepipe):
        plans = placed_imagepipe.select({"width": 512, "height": 512})
        assert all(p.placement == "gpu" for p in plans)

    def test_pinned_gpu_overrides_cpu_winner(self, placed_imagepipe):
        plans = placed_imagepipe.select({"width": 32, "height": 32},
                                        placement="gpu")
        assert all(p.placement == "gpu" for p in plans)

    def test_pinned_cpu_keeps_gpu_only_segments_runnable(
            self, placed_imagepipe):
        # The blur segment has no CPU variant; pinning must not make it
        # unrunnable — it keeps its GPU plan.
        plans = placed_imagepipe.select({"width": 512, "height": 512},
                                        placement="cpu")
        assert plans[0].placement == "cpu"
        assert plans[1].placement == "gpu"

    def test_select_argmin_agrees_with_baked_tables(self, placed_imagepipe):
        for side in (32, 64, 256, 512):
            point = {"width": side, "height": side}
            baked = [p.strategy for p in placed_imagepipe.select(point)]
            exact = [p.strategy
                     for p in placed_imagepipe.select_argmin(point)]
            assert baked == exact

    def test_run_options_placement_is_validated(self):
        with pytest.raises(ValueError, match="placement"):
            api.RunOptions(placement="fpga")

    def test_layout_transform_model_is_positive_and_monotonic(self):
        small = layout_transform_seconds(1 << 10)
        large = layout_transform_seconds(1 << 20)
        assert 0 < small < large


class TestMixedExecutionBitIdentity:
    """Satellite: CPU/GPU splits never change results, only walls."""

    def test_mixed_matches_all_gpu_and_oracle(self, placed_imagepipe):
        data, params = imagepipe.make_input(
            48, 40, rng=np.random.default_rng(7))
        auto = placed_imagepipe.run(data, params)
        assert any(placed_imagepipe.segments[i].plan_named(
            sel.strategy).placement == "cpu"
            for i, sel in enumerate(auto.selections))
        gpu_ref = placed_imagepipe.run(
            data, params, options=api.RunOptions(
                placement="gpu", exec_mode=api.ExecMode.REFERENCE))
        gpu_vec = placed_imagepipe.run(
            data, params, options=api.RunOptions(
                placement="gpu", exec_mode=api.ExecMode.VECTORIZED))
        oracle = imagepipe.reference(data, 48, 40)
        assert np.array_equal(auto.output, gpu_ref.output)
        assert np.array_equal(auto.output, gpu_vec.output)
        assert np.array_equal(auto.output, oracle)

    def test_placement_off_is_bit_identical_to_pinned_gpu(
            self, placed_imagepipe, legacy_imagepipe):
        data, params = imagepipe.make_input(
            96, 64, rng=np.random.default_rng(3))
        legacy = legacy_imagepipe.run(data, params)
        pinned = placed_imagepipe.run(
            data, params, options=api.RunOptions(placement="gpu"))
        assert np.array_equal(legacy.output, pinned.output)

    def test_device_resident_input_with_cpu_entry(self, placed_imagepipe):
        data, params = imagepipe.make_input(
            32, 32, rng=np.random.default_rng(11))
        result = placed_imagepipe.run(
            data, params,
            options=api.RunOptions(location=InputLocation.DEVICE))
        assert np.array_equal(result.output,
                              imagepipe.reference(data, 32, 32))


class TestPlacementBundleRoundTrip:
    """Satellite: placement decisions ride artifact bundles."""

    def test_round_trip_reloads_placement_tables_zero_compile(
            self, tmp_path, placed_imagepipe):
        compiled = placed_imagepipe
        path = tmp_path / "imagepipe-placement.bundle.json"
        compiled.save_bundle(path, meta={"app": "imagepipe"})
        warm = api.load_bundle(
            path, program=compiled.program,
            options=api.AdapticOptions(placement=True))
        for cold_seg, warm_seg in zip(compiled.segments, warm.segments):
            cold, hot = cold_seg.dispatch, warm_seg.dispatch
            assert isinstance(hot, RegionDispatch)
            assert hot.region.to_payload() == cold.region.to_payload()
            # The CPU variant survives the round trip as a selectable
            # strategy, not just a table label.
            assert ([p.strategy for p in warm_seg.plans]
                    == [p.strategy for p in cold_seg.plans])
        compile_before = COMPILE_COUNTER.snapshot()
        stats_before = warm.stats.snapshot()
        point = {"width": 32, "height": 32}
        warm_plans = [p.strategy for p in warm.select(dict(point))]
        cold_plans = [p.strategy for p in compiled.select(dict(point))]
        delta = COMPILE_COUNTER.since(compile_before)
        stats = warm.stats.since(stats_before)
        assert warm_plans == cold_plans
        assert warm_plans[0] == "cpu.vector_map"
        assert delta.total == 0
        assert stats.model_evals == 0
        assert stats.table_hits == len(warm.segments)


class TestDegradeAcrossPlacements:
    def test_gpu_failures_degrade_to_priced_cpu_path(self):
        injector = FaultInjector(
            [FaultPlan(family="map.thread_merged", kind="raise",
                       nth=1, count=8),
             FaultPlan(family="map.grid_stride", kind="raise",
                       nth=1, count=8)], seed=0)
        guarded = api.compile(
            imagepipe.build(input_ranges=RANGES),
            options=api.AdapticOptions(prune=True, placement=True,
                                       faults=injector))
        data, params = imagepipe.make_input(256, 256)
        result = guarded.run(data, params)
        assert result.selections[0].strategy == "cpu.vector_map"
        assert np.array_equal(result.output,
                              imagepipe.reference(data, 256, 256))
        assert guarded.stats.degraded_runs == 1
        assert guarded.stats.retries == 3

    def test_cpu_failure_degrades_back_to_gpu(self):
        injector = FaultInjector(
            [FaultPlan(family="cpu.vector_map", kind="raise",
                       nth=1, count=1)], seed=0)
        guarded = api.compile(
            imagepipe.build(input_ranges=RANGES),
            options=api.AdapticOptions(prune=True, placement=True,
                                       faults=injector))
        data, params = imagepipe.make_input(32, 32)
        result = guarded.run(data, params)
        plan = guarded.segments[0].plan_named(
            result.selections[0].strategy)
        assert plan.placement == "gpu"
        assert np.array_equal(result.output,
                              imagepipe.reference(data, 32, 32))


class TestDegradedSelectAttribution:
    """Satellite: degraded batch items keep their re-selection wall."""

    def test_degraded_item_reports_reselect_wall(self):
        injector = FaultInjector(
            [FaultPlan(family="cpu.vector_map", kind="raise",
                       nth=2, count=1)], seed=0)
        guarded = api.compile(
            imagepipe.build(input_ranges=RANGES),
            options=api.AdapticOptions(prune=True, placement=True,
                                       faults=injector))
        data, params = imagepipe.make_input(48, 48)
        outcome = guarded.run_batch([data, data], params)
        assert not outcome.errors
        # Item 0 ran clean (execution 1) and carries the binding's
        # amortized select wall; item 1 degraded (execution 2) and must
        # report its own re-selection wall — it used to be hard-zeroed.
        assert outcome.results[1].stage_seconds["select"] > 0.0
        assert np.array_equal(outcome.results[0].output,
                              outcome.results[1].output)

    def test_single_run_select_wall_includes_recovery(self):
        injector = FaultInjector(
            [FaultPlan(family="cpu.vector_map", kind="raise",
                       nth=1, count=1)], seed=0)
        guarded = api.compile(
            imagepipe.build(input_ranges=RANGES),
            options=api.AdapticOptions(prune=True, placement=True,
                                       faults=injector))
        data, params = imagepipe.make_input(32, 32)
        clean = api.compile(
            imagepipe.build(input_ranges=RANGES),
            options=api.AdapticOptions(prune=True, placement=True))
        baseline = clean.run(data, params).stage_seconds["select"]
        degraded = guarded.run(data, params).stage_seconds["select"]
        assert degraded > 0.0
        assert guarded.stats.select_seconds > 0.0
        assert baseline > 0.0    # accumulation did not clobber either path


class TestRecalibratePlacementPin:
    """``recalibrate`` observes the chain the placement pin selects (its
    observer path used to drop the pin and observe the auto winner)."""

    def test_every_pass_observes_the_pinned_plan(self, monkeypatch):
        compiled = api.compile(
            imagepipe.build(input_ranges=RANGES),
            options=api.AdapticOptions(prune=True, placement=True))
        point = {"width": 32, "height": 32}
        pinned = compiled.select(point, placement="gpu")[0]
        assert pinned is not compiled.select(point)[0]
        passes = []

        def observer(plan, params):
            passes[-1].append(plan)
            return compiled.cost.plan_seconds(plan, params)

        feed_back = compiled._apply_feedback

        def one_pass(*args, **kwargs):
            passes.append([])
            return feed_back(*args, **kwargs)

        monkeypatch.setattr(compiled, "_apply_feedback", one_pass)
        compiled.recalibrate([point], options=api.RunOptions(placement="gpu"),
                             feedback=api.FeedbackConfig(observer=observer))
        assert passes
        assert all(observed[0] is pinned for observed in passes)


class TestCalibrationNamespaces:
    def test_device_factors_are_independent(self):
        store = CalibrationStore()
        store.observe("map.grid_stride", ("w", 1), 0,
                      observed_seconds=0.5, predicted_seconds=1.0)
        store.observe("cpu.vector_map", ("w", 1), 0,
                      observed_seconds=2.0, predicted_seconds=1.0)
        # Observing a CPU family never moves a GPU family's factor: host
        # families carry the ``cpu.`` prefix, so their keys are disjoint.
        assert store.scale("map.grid_stride", 0) == pytest.approx(0.5)
        assert store.scale("cpu.vector_map", 0) == pytest.approx(2.0)


class TestPercentileSmallWindows:
    """Satellite: nearest-rank p99 must clamp on small windows."""

    def test_single_sample_window(self):
        for p in (0, 1, 50, 99, 100):
            assert percentile([0.25], p) == 0.25

    def test_two_sample_window(self):
        values = [0.1, 0.9]
        assert percentile(values, 50) == 0.1
        assert percentile(values, 99) == 0.9
        assert percentile(values, 100) == 0.9

    def test_ninety_nine_sample_window(self):
        values = [float(i) for i in range(1, 100)]   # 1..99
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 99.0
        assert percentile(values, 50) == 50.0

    def test_out_of_range_percentile_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    def test_serve_metrics_delegates(self):
        metrics = ServeMetrics()
        metrics.record_completion(0.004, {})
        assert metrics.latency_percentile(99) == 0.004
        metrics.record_completion(0.002, {})
        assert metrics.latency_percentile(99) == 0.004
        assert metrics.latency_percentile(50) == 0.002
