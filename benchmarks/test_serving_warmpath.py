"""Warm-path serving gates (runtime kernel management, §3).

The paper's runtime claims selection overhead hides under the initial
transfer; this suite pins down the rest of the repeat-run story.  After
one cold execution at a shape, the Nth ``run()`` must be a pure warm
path: zero expression compilations, zero restructure-permutation
rebuilds (both counter-asserted, not timed), and ``run_many`` must beat
a cold-start loop by at least 3x throughput on a Figure-10-style TMV
sweep.  Warm outputs must be bit-identical to cold ones under both
executor modes.
"""

import time

import numpy as np
import pytest

from repro.apps import tmv
from repro.compiler import AdapticCompiler, runtime
from repro.compiler.exprgen import COMPILE_COUNTER
from repro.compiler.plans.base import RESTRUCTURE_COUNTER
from repro.gpu import (DeviceArray, MODE_REFERENCE, MODE_VECTORIZED,
                       TESLA_C2050)
from repro.compiler import RunOptions

pytestmark = pytest.mark.serving

#: Figure-10-style sweep, scaled down so the cold loop stays CI-sized.
SWEEP_ELEMENTS = 1 << 10


def _compile_tmv():
    DeviceArray.reset_base_allocator()
    return AdapticCompiler(TESLA_C2050).compile(tmv.build())


class TestWarmRunIsZeroWork:
    def test_warm_run_compiles_nothing_and_rebuilds_nothing(self):
        """Counter-asserted: the 2nd run() at a shape is pure warm path."""
        compiled = _compile_tmv()
        rng = np.random.default_rng(7)
        cold_builds = 0
        for rows, cols in tmv.shape_sweep(SWEEP_ELEMENTS):
            matrix, _vec, params = tmv.make_input(rows, cols, rng)
            before = RESTRUCTURE_COUNTER.snapshot()
            cold = compiled.run(matrix, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
            cold_builds += RESTRUCTURE_COUNTER.since(before).perm_builds

            compile_before = COMPILE_COUNTER.snapshot()
            restructure_before = RESTRUCTURE_COUNTER.snapshot()
            stats_before = compiled.stats.snapshot()
            warm = compiled.run(matrix, params, options=RunOptions(exec_mode=MODE_VECTORIZED))

            compiled_delta = COMPILE_COUNTER.since(compile_before)
            rebuilt = RESTRUCTURE_COUNTER.since(restructure_before)
            stats_delta = compiled.stats.since(stats_before)
            assert compiled_delta.total == 0, \
                f"warm run at {rows}x{cols} compiled " \
                f"{compiled_delta.total} expressions"
            assert rebuilt.perm_builds == 0, \
                f"warm run at {rows}x{cols} rebuilt a permutation"
            assert stats_delta.expr_compiles == 0
            assert stats_delta.restructure_builds == 0
            assert stats_delta.runs == 1
            assert warm.output.tobytes() == cold.output.tobytes()
        # The sweep must actually exercise the restructure cache: at
        # least one shape's winning plan needs a host-side permutation.
        assert cold_builds >= 1

    @pytest.mark.parametrize("mode", [MODE_REFERENCE, MODE_VECTORIZED])
    def test_warm_and_cold_outputs_bit_identical(self, mode):
        compiled = _compile_tmv()
        rng = np.random.default_rng(3)
        matrix, _vec, params = tmv.make_input(32, SWEEP_ELEMENTS // 32, rng)
        cold = compiled.run(matrix, params, options=RunOptions(exec_mode=mode))
        for _ in range(3):
            warm = compiled.run(matrix, params, options=RunOptions(exec_mode=mode))
            assert warm.output.tobytes() == cold.output.tobytes()
        expected = tmv.reference(matrix, params["vec"], params["rows"],
                                 params["cols"])
        np.testing.assert_allclose(warm.output, expected, rtol=1e-10)

    def test_warm_run_recycles_arena_buffers(self):
        """Amortized zero allocation: run N+1 reuses run N's buffers."""
        compiled = _compile_tmv()
        rng = np.random.default_rng(11)
        matrix, _vec, params = tmv.make_input(64, 64, rng)
        compiled.run(matrix, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        device = compiled._run_devices[MODE_VECTORIZED]
        misses_before = device.arena.misses
        hits_before = device.arena.hits
        compiled.run(matrix, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        assert device.arena.misses == misses_before, \
            "warm run allocated fresh device buffers"
        assert device.arena.hits > hits_before


class TestRunManyThroughput:
    def test_run_many_3x_over_cold_loop(self):
        """Batched serving ≥3x a clear-caches-every-run cold loop.

        The serving pattern under test: ``warmup()`` once per distinct
        binding, then ``run_many`` the whole batch through the shared
        warm caches.  The cold loop pays selection, kernel compilation,
        permutation rebuild, and fresh allocations on every request.
        """
        repeats = 8
        rng = np.random.default_rng(42)
        shapes = tmv.shape_sweep(SWEEP_ELEMENTS)[::2]
        cases = []
        for rows, cols in shapes:
            matrix, _vec, params = tmv.make_input(rows, cols, rng)
            cases.append((matrix, params))

        cold_program = _compile_tmv()
        cold_outputs = []
        started = time.perf_counter()
        for matrix, params in cases:
            for _ in range(repeats):
                cold_program.clear_warm_caches()
                cold_outputs.append(cold_program.run(
                    matrix, params, options=RunOptions(exec_mode=MODE_VECTORIZED)).output)
        cold_seconds = time.perf_counter() - started

        warm_program = _compile_tmv()
        inputs, params_list = [], []
        for matrix, params in cases:
            inputs.extend([matrix] * repeats)
            params_list.extend([params] * repeats)
        for _matrix, params in cases:
            warm_program.warmup(params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        started = time.perf_counter()
        results = warm_program.run_many(
            inputs, params_list, options=RunOptions(exec_mode=MODE_VECTORIZED))
        warm_seconds = time.perf_counter() - started

        for cold_out, result in zip(cold_outputs, results):
            assert result.output.tobytes() == cold_out.tobytes()
        speedup = cold_seconds / warm_seconds
        assert speedup >= 3.0, \
            f"run_many only {speedup:.2f}x over cold loop " \
            f"({cold_seconds * 1e3:.1f}ms vs {warm_seconds * 1e3:.1f}ms)"

    def test_run_many_batch_never_compiles_after_warmup(self, monkeypatch):
        # Items this small run serially; force a four-thread fan-out.
        monkeypatch.setattr(runtime, "batch_threads", lambda *args: 4)
        compiled = _compile_tmv()
        rng = np.random.default_rng(5)
        matrix, _vec, params = tmv.make_input(32, 128, rng)
        compiled.warmup(params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        before = COMPILE_COUNTER.snapshot()
        options = RunOptions(exec_mode=MODE_VECTORIZED)
        results = compiled.run_many([matrix] * 8, params, options=options)
        assert COMPILE_COUNTER.since(before).total == 0
        first = results[0].output.tobytes()
        assert all(r.output.tobytes() == first for r in results)
