"""Zero-cold-start artifact bundle gates (persistence tentpole).

The warm-path suite shows the *second* run at a shape is free; this
suite shows the *first* run in a new lifetime skips every compile-time
analysis too, once a bundle carries its decisions across.  Gates: a
bundle-loaded program's first Figure-10 requests run no prune or bake
(zero compile-time evaluations), select from the baked tables, and make
exactly the model evaluations, permutation builds and expression
compiles the same requests make after ``clear_warm_caches()``
(counter-asserted); their outputs are bit-identical to a
cold-compiled run's, and first-request latency beats cold start
(structural compile + variant pruning + first execution) by at least
5x.
"""

import numpy as np
import pytest

from repro import api
from repro.apps import tmv
from repro.compiler.exprgen import COMPILE_COUNTER
from repro.experiments import fig10
from repro.gpu import DeviceArray
from repro.compiler import RunOptions

pytestmark = pytest.mark.artifacts

SWEEP_ELEMENTS = 1 << 10
SPEEDUP_FLOOR = 5.0


class TestFirstRequestLatency:
    def test_bundle_load_beats_cold_start_5x(self, tmp_path):
        """The acceptance benchmark: cold vs bundle first request."""
        DeviceArray.reset_base_allocator()
        best = 0.0
        # Wall-clock gate: take the best of three to shed CI noise.
        for attempt in range(3):
            report = fig10.bundle_benchmark(
                total_elements=SWEEP_ELEMENTS,
                path=str(tmp_path / f"bench{attempt}.bundle.json"))
            best = max(best, report["speedup"])
            if best >= SPEEDUP_FLOOR:
                break
        assert best >= SPEEDUP_FLOOR, (
            f"bundle first request only {best:.1f}x faster than cold "
            f"start (floor {SPEEDUP_FLOOR}x)")
        assert report["cold_model_evals"] > 0
        assert report["bundle_compile_evals"] == 0 < \
            report["cold_compile_evals"]

    def test_full_sweep_serves_without_prune_or_bake(self, tmp_path):
        DeviceArray.reset_base_allocator()
        path = str(tmp_path / "sweep.bundle.json")
        fig10.save_bundle(path, total_elements=SWEEP_ELEMENTS)
        report = fig10.bundle_verify(path, total_elements=SWEEP_ELEMENTS)
        loaded = report["loaded"]
        assert report["shapes"] == len(tmv.shape_sweep(SWEEP_ELEMENTS))
        assert loaded["compile_evals"] == 0
        assert loaded["table_hits"] == report["shapes"]
        assert loaded == report["cleared"]
        assert report["identical"] and report["ok"]
        # The same requests after clear_warm_caches() compile as many.
        warm = api.load_bundle(path)
        warm.clear_warm_caches()
        rng = np.random.default_rng(0)
        before = COMPILE_COUNTER.snapshot()
        for rows, cols in tmv.shape_sweep(SWEEP_ELEMENTS):
            matrix, _vec, params = tmv.make_input(rows, cols, rng)
            warm.run(matrix, params)
        assert loaded["expr_compiles"] == \
            COMPILE_COUNTER.since(before).total > 0

    def test_bundle_outputs_bit_identical_across_modes(self, tmp_path):
        DeviceArray.reset_base_allocator()
        path = str(tmp_path / "modes.bundle.json")
        fig10.save_bundle(path, total_elements=SWEEP_ELEMENTS)
        rng = np.random.default_rng(0)
        rows, cols = tmv.shape_sweep(SWEEP_ELEMENTS)[-1]
        matrix, _vec, params = tmv.make_input(rows, cols, rng)
        cold = api.compile(tmv.build())
        cold.prune_variants(samples=6)
        warm = api.load_bundle(path)
        for mode in (api.ExecMode.REFERENCE, api.ExecMode.VECTORIZED):
            cold_out = np.asarray(cold.run(matrix, params,
                                           options=RunOptions(exec_mode=mode)).output)
            warm_out = np.asarray(warm.run(matrix, params,
                                           options=RunOptions(exec_mode=mode)).output)
            assert warm_out.tobytes() == cold_out.tobytes()
