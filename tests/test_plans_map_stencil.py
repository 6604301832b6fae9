"""Tests for map, generic, stencil, and CPU plans."""

import numpy as np
import pytest

from repro.errors import CompileError
from repro.gpu import Device, TESLA_C2050
from repro.ir import classify, lift_code
from repro.ir import nodes as N
from repro.compiler.plans import (CpuPlan, GenericActorPlan, GenericShape,
                                  LAYOUT_INTERLEAVED, LAYOUT_RESTRUCTURED,
                                  MapPlan, MapShape, NaiveStencilPlan,
                                  StencilShape, TiledStencilPlan,
                                  reuse_metric)
from repro.compiler.plans.stencilplan import decompose_offsets
from repro.ir.interp import run_work
from repro.perfmodel import PerformanceModel

from workloads import SAXPY_SRC, STENCIL5_SRC

SPEC = TESLA_C2050


def run_plan(plan, data, params):
    dev = Device(SPEC)
    staged = plan.restructure_input(np.asarray(data), params)
    buf = dev.to_device(staged, "in")
    return plan.execute(dev, {"in": buf}, params).data


class TestMapPlan:
    def _saxpy_plan(self, **kwargs):
        pattern = classify(lift_code(SAXPY_SRC)).pattern
        shape = MapShape(lambda p: p["n"], 2, 1)
        return MapPlan(SPEC, "saxpy", shape, pattern.outputs,
                       threads=64, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {},
        {"layout": LAYOUT_RESTRUCTURED},
        {"items_per_thread": 4},
        {"items_per_thread": 16},
    ])
    def test_saxpy_variants(self, rng, kwargs):
        plan = self._saxpy_plan(**kwargs)
        params = {"n": 150, "a": 2.5}
        data = rng.standard_normal(300)
        pairs = data.reshape(150, 2)
        expected = 2.5 * pairs[:, 0] + pairs[:, 1]
        assert np.allclose(run_plan(plan, data, params), expected)

    def test_multiple_outputs_per_iteration(self, rng):
        pattern = classify(lift_code("""
def splitpm(n):
    x = pop()
    y = pop()
    push(x + y)
    push(x - y)
""")).pattern
        # Work with no loop is not a map pattern; wrap in a loop version.
        pattern = classify(lift_code("""
def splitpm(n):
    for i in range(n):
        x = pop()
        y = pop()
        push(x + y)
        push(x - y)
""")).pattern
        shape = MapShape(lambda p: p["n"], 2, 2)
        plan = MapPlan(SPEC, "pm", shape, pattern.outputs, threads=32)
        data = rng.standard_normal(20)
        out = run_plan(plan, data, {"n": 10})
        pairs = data.reshape(10, 2)
        assert np.allclose(out.reshape(10, 2)[:, 0],
                           pairs[:, 0] + pairs[:, 1])
        assert np.allclose(out.reshape(10, 2)[:, 1],
                           pairs[:, 0] - pairs[:, 1])

    def test_gather_permutation(self):
        # Reverse via index translation: out[i] = in[n - 1 - i].
        mapping = N.BinOp("-", N.BinOp("-", N.Var("n"), N.Const(1)),
                          N.Var("_i"))
        shape = MapShape(lambda p: p["n"], 1, 1)
        plan = MapPlan(SPEC, "rev", shape, [N.Var("_x0")], threads=32,
                       gather=mapping)
        out = run_plan(plan, np.arange(10.0), {"n": 10})
        assert np.array_equal(out, np.arange(10.0)[::-1])
        assert plan.strategy == "map.index_translated"

    def test_restructured_layout_coalesces(self, rng):
        model = PerformanceModel(SPEC)
        inter = self._saxpy_plan()
        soa = self._saxpy_plan(layout=LAYOUT_RESTRUCTURED)
        params = {"n": 1 << 20, "a": 1.0}
        wl_i = inter.launches(params)[0].workload
        wl_s = soa.launches(params)[0].workload
        assert wl_i.uncoal_mem_insts > 0
        assert wl_s.uncoal_mem_insts == 0
        assert (soa.predicted_seconds(model, params)
                < inter.predicted_seconds(model, params))

    def test_thread_merging_reduces_blocks(self):
        params = {"n": 1 << 20, "a": 1.0}
        one = self._saxpy_plan().launches(params)[0]
        merged = self._saxpy_plan(items_per_thread=16).launches(params)[0]
        assert merged.grid * 16 >= one.grid
        assert merged.grid < one.grid

    def test_cuda_source_contains_expression(self):
        plan = self._saxpy_plan()
        src = plan.cuda_source()
        assert "__global__ void saxpy_map" in src
        assert "a" in src and "_x0" in src


class TestGenericPlan:
    SRC = """
def oddmax(k):
    a = pop()
    b = pop()
    c = pop()
    if a > b:
        push(a + c)
    else:
        push(b + c)
"""

    def _plan(self, layout=LAYOUT_INTERLEAVED, inv=40):
        work = lift_code(self.SRC)
        shape = GenericShape(lambda p: inv, lambda p: 3, lambda p: 1)
        return GenericActorPlan(SPEC, "odd", work, shape, layout=layout,
                                threads=32)

    @pytest.mark.parametrize("layout",
                             [LAYOUT_INTERLEAVED, LAYOUT_RESTRUCTURED])
    def test_matches_interpreter(self, rng, layout):
        plan = self._plan(layout)
        data = rng.standard_normal(120)
        work = lift_code(self.SRC)
        expected = run_work(work, list(data), {"k": 0}, invocations=40)
        out = run_plan(plan, data, {"k": 0})
        assert np.allclose(out, expected)

    def test_restructure_rejects_peek_lookahead(self):
        work = lift_code("def f():\n    push(peek(0) + peek(1))\n"
                         "    _ = pop()\n")
        shape = GenericShape(lambda p: 8, lambda p: 1, lambda p: 1,
                             peek=lambda p: 2)
        plan = GenericActorPlan(SPEC, "pk", work, shape,
                                layout=LAYOUT_RESTRUCTURED)
        with pytest.raises(ValueError):
            plan.restructure_input(np.zeros(9), {})

    def test_workload_counts_from_ir(self):
        plan = self._plan()
        wl = plan.launches({"k": 0})[0].workload
        assert wl.mem_insts >= 4        # 3 pops + 1 push
        assert wl.comp_insts > 0


class TestCpuPlan:
    def test_executes_on_host(self, rng):
        work = lift_code("def sq(n):\n    for i in range(n):\n"
                         "        x = pop()\n        push(x * x)\n")
        plan = CpuPlan(SPEC, "sq", work, lambda p: 1, lambda p: p["n"],
                       lambda p: p["n"])
        data = rng.standard_normal(50)
        out = run_plan(plan, data, {"n": 50})
        assert np.allclose(out, data ** 2)

    def test_predicted_time_scales_with_work(self, model):
        work = lift_code("def sq(n):\n    for i in range(n):\n"
                         "        x = pop()\n        push(x * x)\n")
        plan = CpuPlan(SPEC, "sq", work, lambda p: 1, lambda p: p["n"],
                       lambda p: p["n"])
        assert (plan.predicted_seconds(model, {"n": 1 << 20})
                > 10 * plan.predicted_seconds(model, {"n": 1 << 10}))


class TestStencilPlans:
    def _pattern(self):
        return classify(lift_code(STENCIL5_SRC)).pattern

    def _reference(self, data, width):
        size = data.size
        work = lift_code(STENCIL5_SRC)
        return run_work(work, list(data), {"size": size, "width": width})

    @pytest.mark.parametrize("plan_cls", [NaiveStencilPlan,
                                          TiledStencilPlan])
    def test_matches_interpreter(self, rng, plan_cls):
        width, height = 12, 9
        pattern = self._pattern()
        shape = StencilShape(lambda p: p["width"],
                             lambda p: p["size"] // p["width"])
        plan = plan_cls(SPEC, "st", shape, pattern, threads=32)
        data = rng.standard_normal(width * height)
        params = {"size": width * height, "width": width}
        expected = self._reference(data, width)
        out = run_plan(plan, data, params)
        assert np.allclose(out, expected)

    def test_tiled_matches_naive_on_awkward_sizes(self, rng):
        pattern = self._pattern()
        for width, height in [(7, 5), (33, 3), (16, 16)]:
            shape = StencilShape(lambda p, w=width: w,
                                 lambda p, h=height: h)
            naive = NaiveStencilPlan(SPEC, "st", shape, pattern, threads=32)
            tiled = TiledStencilPlan(SPEC, "st", shape, pattern, threads=32)
            data = rng.standard_normal(width * height)
            params = {"size": width * height, "width": width}
            assert np.allclose(run_plan(naive, data, params),
                               run_plan(tiled, data, params))

    def test_offset_decomposition(self):
        pattern = self._pattern()
        pairs = decompose_offsets(pattern, {"width": 10}, 10)
        assert set(pairs) == {(-1, 0), (1, 0), (0, -1), (0, 1), (0, 0)}

    def test_reuse_metric_prefers_square_ish_tiles(self):
        wide = reuse_metric(128, 1, 1, 1, 5)
        square = reuse_metric(16, 8, 1, 1, 5)
        assert square > wide

    def test_tile_adapts_to_input_size(self):
        """Small inputs get smaller super tiles to keep blocks plentiful."""
        pattern = self._pattern()
        big = StencilShape(lambda p: 4096, lambda p: 4096)
        small = StencilShape(lambda p: 128, lambda p: 64)
        plan_big = TiledStencilPlan(SPEC, "st", big, pattern)
        plan_small = TiledStencilPlan(SPEC, "st", small, pattern)
        tw_b, th_b = plan_big.choose_tile({"width": 4096})
        tw_s, th_s = plan_small.choose_tile({"width": 128})
        assert tw_b * th_b >= tw_s * th_s

    def test_tiled_less_traffic_than_naive(self, model):
        """Super tiles cut the 5x global read amplification (§4.1.2)."""
        pattern = self._pattern()
        shape = StencilShape(lambda p: 2048, lambda p: 2048)
        naive = NaiveStencilPlan(SPEC, "st", shape, pattern)
        tiled = TiledStencilPlan(SPEC, "st", shape, pattern)
        params = {"width": 2048}
        assert (tiled.predicted_seconds(model, params)
                < naive.predicted_seconds(model, params))

    def test_shape_memoizes_geometry_but_not_errors(self):
        """Width and height are evaluated once per scalar binding (array
        params do not key them); a binding that raises is evaluated
        again next time."""
        calls = []

        def width(params):
            calls.append(params["width"])
            if params["width"] < 0:
                raise CompileError("one invocation per execution")
            return params["width"]

        shape = StencilShape(width, lambda p: 3)
        assert shape.size({"width": 4}) == 12
        assert shape.width({"width": 4, "vec": np.zeros(2)}) == 4
        for _ in range(2):
            with pytest.raises(CompileError):
                shape.height({"width": -1})
        assert calls == [4, -1, -1]
