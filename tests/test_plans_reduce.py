"""Tests for reduction kernel plans: correctness, layouts, instrumentation."""

import math

import numpy as np
import pytest

from repro.gpu import Device, TESLA_C2050
from repro.ir import classify, lift_code
from repro.compiler.plans import (LAYOUT_ROW_SOA, LAYOUT_ROWS,
                                  LAYOUT_TRANSPOSED, ReduceShape,
                                  ReduceSingleKernelPlan,
                                  ReduceThreadPerArrayPlan,
                                  ReduceTwoKernelPlan, restructure_host)
from repro.compiler.plans.multireduce import (HorizontalReducePlan,
                                              SeparateReducePlan)
from repro.compiler.reducers import ArgReducer, ScalarReducer
from repro.perfmodel import PerformanceModel

from workloads import ISAMAX_SRC, SDOT_SRC, SNRM2_SRC, SUM_SRC

SPEC = TESLA_C2050


def make_reduction(src):
    pattern = classify(lift_code(src)).pattern
    return pattern, (lambda p, pat=pattern: ScalarReducer(pat, p))


def run_plan(plan, data, params, rng_device=None):
    dev = rng_device or Device(SPEC)
    staged = plan.restructure_input(np.asarray(data), params)
    buf = dev.to_device(staged, "in")
    out = plan.execute(dev, {"in": buf}, params)
    return out.data


class TestScalarReductions:
    @pytest.mark.parametrize("plan_cls,kwargs", [
        (ReduceSingleKernelPlan, {}),
        (ReduceSingleKernelPlan, {"rows_per_block": 4}),
        (ReduceTwoKernelPlan, {}),
        (ReduceThreadPerArrayPlan, {"layout": LAYOUT_TRANSPOSED}),
        (ReduceThreadPerArrayPlan, {"layout": LAYOUT_ROWS}),
    ])
    def test_sdot_all_plans(self, rng, plan_cls, kwargs):
        pattern, reducer_fn = make_reduction(SDOT_SRC)
        shape = ReduceShape(lambda p: p["r"], lambda p: p["n"], 2)
        plan = plan_cls(SPEC, "sdot", shape, reducer_fn, threads=64,
                        **kwargs)
        params = {"r": 5, "n": 96}
        data = rng.standard_normal(5 * 96 * 2)
        pairs = data.reshape(5, 96, 2)
        expected = (pairs[:, :, 0] * pairs[:, :, 1]).sum(axis=1)
        assert np.allclose(run_plan(plan, data, params), expected)

    def test_snrm2_epilogue(self, rng):
        pattern, reducer_fn = make_reduction(SNRM2_SRC)
        shape = ReduceShape(lambda p: 1, lambda p: p["n"], 1)
        plan = ReduceTwoKernelPlan(SPEC, "snrm2", shape, reducer_fn,
                                   threads=64)
        data = rng.standard_normal(1000)
        out = run_plan(plan, data, {"n": 1000})
        assert out[0] == pytest.approx(np.linalg.norm(data), rel=1e-6)

    def test_nonzero_init_folded_once(self):
        pattern, reducer_fn = make_reduction("""
def offset_sum(n):
    acc = 100.0
    for i in range(n):
        acc = acc + pop()
    push(acc)
""")
        shape = ReduceShape(lambda p: 1, lambda p: p["n"], 1)
        # Two-kernel: many partial blocks must not re-add the init value.
        plan = ReduceTwoKernelPlan(SPEC, "osum", shape, reducer_fn,
                                   threads=64, initial_blocks=4)
        out = run_plan(plan, np.ones(256), {"n": 256})
        assert out[0] == pytest.approx(356.0)

    def test_length_not_multiple_of_threads(self, rng):
        pattern, reducer_fn = make_reduction(SUM_SRC)
        shape = ReduceShape(lambda p: 2, lambda p: p["n"], 1)
        plan = ReduceSingleKernelPlan(SPEC, "sum", shape, reducer_fn,
                                      threads=64)
        data = rng.standard_normal(2 * 37)
        out = run_plan(plan, data, {"n": 37})
        assert np.allclose(out, data.reshape(2, 37).sum(axis=1))

    def test_min_reduction(self, rng):
        pattern, reducer_fn = make_reduction("""
def mn(n):
    best = 1e30
    for i in range(n):
        best = min(best, pop())
    push(best)
""")
        shape = ReduceShape(lambda p: 3, lambda p: p["n"], 1)
        plan = ReduceTwoKernelPlan(SPEC, "mn", shape, reducer_fn, threads=64)
        data = rng.standard_normal(3 * 100)
        out = run_plan(plan, data, {"n": 100})
        assert np.allclose(out, data.reshape(3, 100).min(axis=1))


class TestArgReduce:
    def test_isamax_plans(self, rng):
        pattern = classify(lift_code(ISAMAX_SRC)).pattern
        reducer_fn = lambda p: ArgReducer(pattern, p)  # noqa: E731
        shape = ReduceShape(lambda p: 2, lambda p: p["n"], 1)
        data = rng.standard_normal(2 * 300)
        expected = np.abs(data.reshape(2, 300)).argmax(axis=1)
        for plan_cls in (ReduceSingleKernelPlan, ReduceTwoKernelPlan):
            plan = plan_cls(SPEC, "isamax", shape, reducer_fn, threads=64)
            out = run_plan(plan, data, {"n": 300})
            assert np.array_equal(out.astype(int), expected)

    def test_tie_keeps_first_index(self):
        pattern = classify(lift_code(ISAMAX_SRC)).pattern
        reducer_fn = lambda p: ArgReducer(pattern, p)  # noqa: E731
        shape = ReduceShape(lambda p: 1, lambda p: p["n"], 1)
        data = np.zeros(128)
        data[37] = 5.0
        data[90] = 5.0   # tie in a different block's chunk
        plan = ReduceTwoKernelPlan(SPEC, "isamax", shape, reducer_fn,
                                   threads=32, initial_blocks=4)
        out = run_plan(plan, data, {"n": 128})
        assert int(out[0]) == 37


class TestLayouts:
    def test_restructure_roundtrip_row_soa(self, rng):
        shape = ReduceShape(lambda p: 3, lambda p: 4, 2)
        data = np.arange(24.0)
        soa = restructure_host(data, LAYOUT_ROW_SOA, shape, {})
        # Row 0 components: [0,2,4,6] then [1,3,5,7].
        assert np.array_equal(soa[:8], [0, 2, 4, 6, 1, 3, 5, 7])

    def test_restructure_transposed(self):
        shape = ReduceShape(lambda p: 2, lambda p: 3, 1)
        data = np.arange(6.0)
        t = restructure_host(data, LAYOUT_TRANSPOSED, shape, {})
        assert np.array_equal(t, [0, 3, 1, 4, 2, 5])

    def test_soa_layout_coalesces_sdot(self, rng):
        """Memory restructuring (Figure 3): SoA makes all loads coalesced."""
        pattern, reducer_fn = make_reduction(SDOT_SRC)
        shape = ReduceShape(lambda p: 1, lambda p: p["n"], 2)
        params = {"n": 256}
        data = rng.standard_normal(512)

        stats = {}
        for layout in (LAYOUT_ROWS, LAYOUT_ROW_SOA):
            plan = ReduceSingleKernelPlan(SPEC, "sdot", shape, reducer_fn,
                                          layout, threads=64)
            dev = Device(SPEC)
            buf = dev.to_device(plan.restructure_input(data, params), "in")
            out = dev.alloc(1, dtype=np.float64)
            # trace through the device executor directly
            from repro.gpu import LaunchConfig
            kern_stats = None
            # Re-run via plan but traced: use executor on the same kernel.
            # Simplest: monkey-level — launch with trace via device.launch
            # inside execute is untraced, so re-launch manually:
            plan.execute(dev, {"in": buf}, params)
            stats[layout] = plan
        # The analytic split must reflect the coalescing difference.
        rows_wl = stats[LAYOUT_ROWS].launches(params)[0].workload
        soa_wl = stats[LAYOUT_ROW_SOA].launches(params)[0].workload
        assert rows_wl.uncoal_mem_insts > 0
        assert soa_wl.uncoal_mem_insts == 0

    def test_transposed_thread_per_array_is_coalesced_in_trace(self, rng):
        """Observed (traced) coalescing: transposed layout wins."""
        pattern, reducer_fn = make_reduction(SUM_SRC)
        shape = ReduceShape(lambda p: 64, lambda p: 16, 1)
        params = {"n": 16}
        data = rng.standard_normal(64 * 16)
        fractions = {}
        for layout in (LAYOUT_ROWS, LAYOUT_TRANSPOSED):
            plan = ReduceThreadPerArrayPlan(SPEC, "sum", shape, reducer_fn,
                                            layout, threads=64)
            dev = Device(SPEC)
            # Stage as float32: the wire format real CUDA kernels read.
            staged = plan.restructure_input(data, params).astype(np.float32)
            buf = dev.to_device(staged, "in")
            out = dev.alloc(64, dtype=np.float64, name="out")
            # Launch the same kernel body with tracing enabled.
            from repro.gpu import Kernel

            captured = {}
            original_launch = dev.launch

            def traced_launch(kernel, grid, block, args, trace=False):
                result = original_launch(kernel, grid, block, args,
                                         trace=True)
                captured["stats"] = result
                return result

            dev.launch = traced_launch
            result = plan.execute(dev, {"in": buf}, params)
            assert np.allclose(result.data,
                               data.reshape(64, 16).sum(axis=1))
            fractions[layout] = captured["stats"].coalesced_fraction
        # All loads coalesce; only the (float64) result store straddles.
        assert fractions[LAYOUT_TRANSPOSED] > 0.9
        assert fractions[LAYOUT_ROWS] < 0.5


class TestHorizontalIntegration:
    def _reducers(self):
        sum_pat = classify(lift_code(SUM_SRC)).pattern
        max_pat = classify(lift_code("""
def mx(n):
    best = -1e30
    for i in range(n):
        best = max(best, pop())
    push(best)
""")).pattern
        return [lambda p: ScalarReducer(sum_pat, p),
                lambda p: ScalarReducer(max_pat, p)]

    @pytest.mark.parametrize("two_kernel", [False, True])
    def test_fused_matches_reference(self, rng, two_kernel):
        reducer_fns = self._reducers()
        shape = ReduceShape(lambda p: 2, lambda p: p["n"], 1)
        plan = HorizontalReducePlan(SPEC, "h", shape, reducer_fns,
                                    threads=64, two_kernel=two_kernel)
        data = rng.standard_normal(2 * 200)
        out = run_plan(plan, data, {"n": 200})
        rows = data.reshape(2, 200)
        expected = np.column_stack([rows.sum(axis=1),
                                    rows.max(axis=1)]).reshape(-1)
        assert np.allclose(out, expected)

    def test_fused_faster_than_separate(self, rng):
        """Horizontal integration halves global traffic (§4.3.2)."""
        model = PerformanceModel(SPEC)
        reducer_fns = self._reducers()
        shape = ReduceShape(lambda p: 1, lambda p: p["n"], 1)
        fused = HorizontalReducePlan(SPEC, "h", shape, reducer_fns,
                                     threads=256, two_kernel=True)
        branches = [ReduceTwoKernelPlan(SPEC, f"b{i}", shape, fn,
                                        threads=256)
                    for i, fn in enumerate(reducer_fns)]
        separate = SeparateReducePlan(SPEC, "sep", branches, [1, 1],
                                      lambda p: 1)
        params = {"n": 4 * 1024 * 1024}
        assert (fused.predicted_seconds(model, params)
                < separate.predicted_seconds(model, params))

    def test_separate_plan_interleaves_outputs(self, rng):
        reducer_fns = self._reducers()
        shape = ReduceShape(lambda p: 2, lambda p: p["n"], 1)
        branches = [ReduceSingleKernelPlan(SPEC, f"b{i}", shape, fn,
                                           threads=64)
                    for i, fn in enumerate(reducer_fns)]
        plan = SeparateReducePlan(SPEC, "sep", branches, [1, 1],
                                  lambda p: 2)
        data = rng.standard_normal(2 * 64)
        out = run_plan(plan, data, {"n": 64})
        rows = data.reshape(2, 64)
        expected = np.column_stack([rows.sum(axis=1),
                                    rows.max(axis=1)]).reshape(-1)
        assert np.allclose(out, expected)


class TestModelDrivenSelection:
    """The paper's reduction crossover: few long arrays -> two-kernel;
    many short arrays -> single-kernel/thread-per-array."""

    def test_crossover(self):
        model = PerformanceModel(SPEC)
        _, reducer_fn = make_reduction(SUM_SRC)

        def time_for(narrays, nelements, plan_cls, **kw):
            shape = ReduceShape(lambda p: narrays, lambda p: nelements, 1)
            plan = plan_cls(SPEC, "sum", shape, reducer_fn, **kw)
            return plan.predicted_seconds(model, {})

        # One huge array: two-kernel must beat one block.
        assert (time_for(1, 4 << 20, ReduceTwoKernelPlan)
                < time_for(1, 4 << 20, ReduceSingleKernelPlan))
        # Many small arrays: single-kernel must beat two-kernel.
        assert (time_for(4096, 256, ReduceSingleKernelPlan)
                < time_for(4096, 256, ReduceTwoKernelPlan))
        # Huge number of tiny arrays: thread-per-array wins.
        assert (time_for(1 << 20, 4, ReduceThreadPerArrayPlan,
                         layout=LAYOUT_TRANSPOSED)
                < time_for(1 << 20, 4, ReduceSingleKernelPlan))

    def test_two_kernel_initial_blocks_adapt(self):
        _, reducer_fn = make_reduction(SUM_SRC)
        shape = ReduceShape(lambda p: 1, lambda p: p["n"], 1)
        plan = ReduceTwoKernelPlan(SPEC, "sum", shape, reducer_fn)
        small = plan.initial_blocks({"n": 1024})
        large = plan.initial_blocks({"n": 16 << 20})
        assert small < large

    def test_cuda_source_mentions_both_kernels(self):
        _, reducer_fn = make_reduction(SUM_SRC)
        shape = ReduceShape(lambda p: 1, lambda p: p["n"], 1)
        plan = ReduceTwoKernelPlan(SPEC, "sum", shape, reducer_fn)
        src = plan.cuda_source()
        assert "__global__ void sum_initial" in src
        assert "__global__ void sum_merge" in src
        assert "__syncthreads()" in src


class TestMixedHorizontalReduce:
    """Horizontal integration across reducers with different state widths
    (a scalar sum fused with a (value, index) arg-max in one pass)."""

    def _reducer_fns(self):
        sum_pat = classify(lift_code(SUM_SRC)).pattern
        argmax_pat = classify(lift_code(ISAMAX_SRC)).pattern
        return [lambda p: ScalarReducer(sum_pat, p),
                lambda p: ArgReducer(argmax_pat, p)]

    @pytest.mark.parametrize("two_kernel", [False, True])
    def test_mixed_state_widths(self, rng, two_kernel):
        reducer_fns = self._reducer_fns()
        shape = ReduceShape(lambda p: 3, lambda p: p["n"], 1)
        plan = HorizontalReducePlan(SPEC, "mixed", shape, reducer_fns,
                                    threads=64, two_kernel=two_kernel)
        data = rng.standard_normal(3 * 150)
        out = run_plan(plan, data, {"n": 150})
        rows = data.reshape(3, 150)
        expected = np.column_stack(
            [rows.sum(axis=1),
             np.abs(rows).argmax(axis=1)]).reshape(-1)
        assert np.allclose(out, expected)

    def test_compiled_mixed_splitjoin(self, rng):
        from repro import (Duplicate, Filter, SplitJoin, StreamProgram,
                           roundrobin, api)
        from repro.streamit import run_program
        prog = StreamProgram(
            SplitJoin(Duplicate(),
                      [Filter(SUM_SRC, pop="n", push=1, name="s"),
                       Filter(ISAMAX_SRC, pop="n", push=1, name="am")],
                      roundrobin(1)),
            params=["n"], input_size="n")
        compiled = api.compile(prog)
        assert compiled.segments[0].kind == "multi_reduce"
        data = rng.standard_normal(200)
        ref = run_program(prog, data, {"n": 200})
        seg = compiled.segments[0]
        for plan in seg.plans:
            result = compiled.run(data, {"n": 200},
                                  force={seg.name: plan.strategy})
            assert np.allclose(result.output, ref), plan.strategy


class TestPlanEdgeCases:
    def test_non_power_of_two_threads_rejected(self):
        pattern, reducer_fn = make_reduction(SUM_SRC)
        shape = ReduceShape(lambda p: 1, lambda p: 64, 1)
        with pytest.raises(ValueError):
            ReduceSingleKernelPlan(SPEC, "bad", shape, reducer_fn,
                                   threads=96)

    def test_rows_merged_with_ragged_tail(self, rng):
        """narrays not a multiple of rows_per_block: the tail block's
        out-of-range rows must be skipped, not written."""
        pattern, reducer_fn = make_reduction(SUM_SRC)
        shape = ReduceShape(lambda p: 5, lambda p: 40, 1)
        plan = ReduceSingleKernelPlan(SPEC, "ragged", shape, reducer_fn,
                                      threads=32, rows_per_block=4)
        data = rng.standard_normal(5 * 40)
        out = run_plan(plan, data, {})
        assert out.shape == (5,)
        assert np.allclose(out, data.reshape(5, 40).sum(axis=1))

    def test_single_element_arrays(self, rng):
        pattern, reducer_fn = make_reduction(SUM_SRC)
        shape = ReduceShape(lambda p: 7, lambda p: 1, 1)
        data = rng.standard_normal(7)
        for plan_cls in (ReduceSingleKernelPlan, ReduceTwoKernelPlan):
            plan = plan_cls(SPEC, "tiny", shape, reducer_fn, threads=32)
            assert np.allclose(run_plan(plan, data, {}), data)
