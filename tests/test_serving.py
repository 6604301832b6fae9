"""Warm-path serving layer: caches, arena, batching, observability.

Covers the repeat-run ("serving") story end to end at unit scale:
transfer safety (device buffers never alias caller memory), the
wire-dtype transfer model, per-stage wall-clock observability, warmup
and ``run_many`` semantics, stats reset/merge across batches, and the
buffer arena's recycling contract.
"""

import numpy as np
import pytest

from repro import api
from repro.apps import imagepipe, tmv
from repro.compiler import AdapticCompiler, runtime
from repro.compiler.exprgen import COMPILE_COUNTER
from repro.compiler.plans import TiledStencilPlan
from repro.compiler.plans import base as plan_base
from repro.compiler.plans.base import RESTRUCTURE_COUNTER
from repro.gpu import (BufferArena, Device, DeviceArray, MODE_REFERENCE,
                       MODE_VECTORIZED, PCIE_BANDWIDTH_GBPS, TESLA_C2050)
from repro.compiler import RunOptions
from repro.ir.rates import RateExpr


@pytest.fixture
def compiled():
    DeviceArray.reset_base_allocator()
    return AdapticCompiler(TESLA_C2050).compile(tmv.build())


@pytest.fixture
def tmv_case(rng):
    matrix, _vec, params = tmv.make_input(16, 64, rng)
    return matrix, params


class TestTransferAliasing:
    """Satellite: device buffers must not share memory with host arrays."""

    def test_to_device_copies_mutating_device_leaves_host_intact(self,
                                                                 device):
        host = np.arange(32, dtype=np.float64)
        keep = host.copy()
        buf = device.to_device(host)
        buf.data[:] = -1.0
        np.testing.assert_array_equal(host, keep)

    def test_alloc_from_copies(self, device):
        host = np.ones(16, dtype=np.float64)
        buf = device.alloc_from(host)
        buf.data[:] = 7.0
        np.testing.assert_array_equal(host, np.ones(16))

    def test_run_output_mutation_leaves_input_untouched(self, compiled,
                                                        tmv_case):
        matrix, params = tmv_case
        keep = matrix.copy()
        result = compiled.run(matrix, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        result.output[:] = np.nan
        np.testing.assert_array_equal(matrix, keep)
        again = compiled.run(matrix, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        assert np.isfinite(again.output).all()


class TestWireDtype:
    """Satellite: the transfer model is sized by the wire dtype."""

    def test_transfer_seconds_uses_wire_dtype_itemsize(self, compiled):
        params = {"rows": 64, "cols": 64}
        n_in = compiled.segments[0].input_size(params)
        n_out = compiled.segments[-1].output_size(params)
        expected = ((n_in + n_out) * compiled.wire_dtype.itemsize
                    / (PCIE_BANDWIDTH_GBPS * 1e9) + 2e-5)
        assert compiled.transfer_seconds(params) == pytest.approx(expected)

    def test_wire_dtype_matches_staged_transfers(self, compiled, tmv_case):
        """The bytes the model charges are the bytes run() moves."""
        matrix, params = tmv_case
        device = Device(TESLA_C2050, exec_mode=MODE_VECTORIZED)
        compiled.run(matrix, params, device=device)
        h2d = [t for t in device.transfers if t.direction == "h2d"]
        assert h2d[0].nbytes == matrix.size * compiled.wire_dtype.itemsize

    def test_wire_dtype_is_float64(self, compiled):
        """run() stages in float64; the model must count those 8 bytes."""
        assert compiled.wire_dtype == np.dtype(np.float64)


class TestStageObservability:
    def test_run_result_carries_stage_seconds(self, compiled, tmv_case):
        matrix, params = tmv_case
        result = compiled.run(matrix, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        assert set(result.stage_seconds) == {
            "select", "restructure", "h2d", "kernel", "d2h", "compile"}
        assert all(v >= 0.0 for v in result.stage_seconds.values())
        assert result.stage_seconds["kernel"] > 0.0

    def test_cold_run_records_compile_warm_run_does_not(self, compiled,
                                                        tmv_case):
        matrix, params = tmv_case
        cold = compiled.run(matrix, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        warm = compiled.run(matrix, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        assert cold.stage_seconds["compile"] > 0.0
        assert warm.stage_seconds["compile"] == 0.0

    def test_stats_aggregate_stages_and_counters(self, compiled, tmv_case):
        matrix, params = tmv_case
        compiled.run(matrix, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        compiled.run(matrix, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        stats = compiled.stats
        assert stats.runs == 2
        assert stats.expr_compiles > 0          # all from the cold run
        assert stats.kernel_seconds > 0.0
        assert stats.h2d_seconds > 0.0
        assert "runs=2" in stats.summary()
        assert "kernel=" in stats.stage_summary()


class TestWarmGeometry:
    @pytest.mark.parametrize("placement", [False, True],
                             ids=["gpu", "placement"])
    def test_warm_imagepipe_run_evaluates_one_rate(self, monkeypatch,
                                                   placement):
        """Map and stencil geometry is memoized per scalar binding, so a
        warm run evaluates one rate expression: the declared input size
        its input is checked against."""
        compiled = api.compile(
            imagepipe.build(),
            options=api.AdapticOptions(placement=placement))
        data, params = imagepipe.make_input(64, 48)
        compiled.run(data, params)
        calls = []
        evaluate = RateExpr.evaluate

        def counting(self, bound):
            calls.append(str(self))
            return evaluate(self, bound)

        monkeypatch.setattr(RateExpr, "evaluate", counting)
        compiled.run(data, params)
        assert len(calls) <= 1, calls

    @pytest.mark.parametrize("placement", [False, True],
                             ids=["gpu", "placement"])
    def test_warm_imagepipe_run_freezes_binding_once(self, monkeypatch,
                                                     placement):
        """A run freezes its binding once; every cache lookup below it
        reads the frozen keys instead of sorting the params again."""
        compiled = api.compile(
            imagepipe.build(),
            options=api.AdapticOptions(placement=placement))
        data, params = imagepipe.make_input(64, 48)
        compiled.run(data, params)
        calls = []
        scalar_key = plan_base._scalar_key

        def counting(params):
            calls.append(dict(params))
            return scalar_key(params)

        monkeypatch.setattr(plan_base, "_scalar_key", counting)
        compiled.run(data, params)
        assert len(calls) <= 1, calls

    def test_tiled_geometry_holds_a_byte_per_cell(self):
        """The super-tile plan caches one guard mask per binding, at most
        one byte per cell of its tile grid."""
        compiled = api.compile(imagepipe.build())
        for width, height in ((64, 48), (128, 128), (96, 200), (256, 64)):
            data, params = imagepipe.make_input(width, height)
            compiled.run(data, params,
                         options=RunOptions(exec_mode=MODE_VECTORIZED),
                         force={"seg1_blur_point": "stencil.super_tile"})
        tiled = [plan for segment in compiled.segments
                 for plan in segment.plans
                 if isinstance(plan, TiledStencilPlan)]
        assert tiled
        geometries = [value for plan in tiled
                      for key, value in plan._warm_cache.items()
                      if key[0] == "tiling"]
        assert len(geometries) == 4
        for geo in geometries:
            cells = geo.tiles[0] * geo.tiles[1] * geo.tile[0] * geo.tile[1]
            arrays = [value for value in vars(geo).values()
                      if isinstance(value, np.ndarray)]
            assert sum(array.nbytes for array in arrays) <= cells


class TestWarmupAndRunMany:
    def test_warmup_makes_next_run_compile_free(self, compiled, tmv_case):
        matrix, params = tmv_case
        compiled.warmup(params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        before = COMPILE_COUNTER.snapshot()
        restructure_before = RESTRUCTURE_COUNTER.snapshot()
        result = compiled.run(matrix, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        assert COMPILE_COUNTER.since(before).total == 0
        assert RESTRUCTURE_COUNTER.since(restructure_before).perm_builds == 0
        expected = tmv.reference(matrix, params["vec"], params["rows"],
                                 params["cols"])
        np.testing.assert_allclose(result.output, expected, rtol=1e-10)

    def test_run_many_broadcasts_single_params(self, compiled, tmv_case):
        matrix, params = tmv_case
        results = compiled.run_many([matrix, matrix, matrix], params,
                                    options=RunOptions(exec_mode=MODE_VECTORIZED))
        assert len(results) == 3
        first = results[0].output.tobytes()
        assert all(r.output.tobytes() == first for r in results)

    def test_run_many_matches_run_per_binding(self, compiled, rng):
        cases = [tmv.make_input(rows, cols, rng)
                 for rows, cols in ((8, 32), (32, 8))]
        inputs = [m for m, _v, _p in cases]
        params_list = [p for _m, _v, p in cases]
        single = [compiled.run(m, p, options=RunOptions(exec_mode=MODE_VECTORIZED)).output
                  for m, p in zip(inputs, params_list)]
        batched = compiled.run_many(inputs, params_list,
                                    options=RunOptions(exec_mode=MODE_VECTORIZED))
        for out, result in zip(single, batched):
            assert result.output.tobytes() == out.tobytes()

    def test_run_many_workers_match_serial(self, compiled, tmv_case,
                                           monkeypatch):
        matrix, params = tmv_case
        options = RunOptions(exec_mode=MODE_VECTORIZED)
        serial = compiled.run_many([matrix] * 4, params, options=options)
        # Items this small run serially; force a two-thread fan-out.
        monkeypatch.setattr(runtime, "batch_threads", lambda *args: 2)
        threaded = compiled.run_many([matrix] * 4, params, options=options)
        for a, b in zip(serial, threaded):
            assert a.output.tobytes() == b.output.tobytes()

    def test_run_many_length_mismatch_raises(self, compiled, tmv_case):
        matrix, params = tmv_case
        with pytest.raises(ValueError, match="2 inputs but 1 params"):
            compiled.run_many([matrix, matrix], [params])

    def test_stats_reset_between_batches(self, compiled, tmv_case):
        """Satellite: counters reset cleanly across run_many batches."""
        matrix, params = tmv_case
        compiled.run_many([matrix] * 3, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        assert compiled.stats.runs == 3      # one execution per item
        compiled.stats.reset()
        assert compiled.stats.runs == 0
        assert compiled.stats.select_calls == 0
        assert compiled.stats.kernel_seconds == 0.0
        compiled.run_many([matrix] * 2, params,
                          options=RunOptions(exec_mode=MODE_VECTORIZED))
        assert compiled.stats.runs == 2
        assert compiled.stats.expr_compiles == 0     # batch stayed warm

    def test_clear_warm_caches_forces_recompile(self, compiled, tmv_case):
        matrix, params = tmv_case
        compiled.run(matrix, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        compiled.clear_warm_caches()
        before = COMPILE_COUNTER.snapshot()
        compiled.run(matrix, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        assert COMPILE_COUNTER.since(before).total > 0


class TestBufferArena:
    def test_acquire_release_recycles_exact_bucket(self):
        arena = BufferArena()
        a = arena.acquire(64, np.float64)
        arena.release(a)
        b = arena.acquire(64, np.float64)
        assert b is a
        assert arena.hits == 1

    def test_distinct_size_or_dtype_never_shares(self):
        arena = BufferArena()
        a = arena.acquire(64, np.float64)
        arena.release(a)
        assert arena.acquire(32, np.float64) is not a
        arena.release(a)
        assert arena.acquire(64, np.float32) is not a

    def test_recycled_buffer_is_zeroed(self):
        arena = BufferArena()
        a = arena.acquire(8, np.float64)
        a.data[:] = 3.5
        arena.release(a)
        b = arena.acquire(8, np.float64)
        np.testing.assert_array_equal(b.data, np.zeros(8))

    def test_device_scope_reclaims_into_arena(self):
        device = Device(TESLA_C2050)
        with device.scope():
            device.alloc(16, dtype=np.float64)
            device.to_device(np.ones(8))
        assert len(device.arena) == 2
        with device.scope():
            device.alloc(16, dtype=np.float64)
            device.to_device(np.ones(8))
        assert device.arena.hits == 2
