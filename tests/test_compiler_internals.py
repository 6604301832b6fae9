"""Tests for AdapticCompiler internals: sizing, thread options, fusion
ordering, optimization attribution and the frozen run binding."""

import copy
import pickle

import numpy as np
import pytest

from repro import AdapticOptions, Filter, Pipeline, StreamProgram, api
from repro.compiler import AdapticCompiler
from repro.compiler.adaptic import _Sizing
from repro.compiler.plans.base import (FrozenParams, freeze_arrays,
                                       freeze_scalars)
from repro.gpu import TESLA_C2050
from repro.streamit import flatten

from workloads import SCALE_SRC, SDOT_SRC, SUM_SRC


class TestSizing:
    def _sizing(self, prog):
        return _Sizing(prog, flatten(prog.top))

    def test_invocations_scale_with_steady_states(self):
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r")
        sizing = self._sizing(prog)
        filt = prog.filters()[0]
        inv = sizing.invocations(filt)
        assert inv({"n": 16, "r": 1}) == 1
        assert inv({"n": 16, "r": 7}) == 7

    def test_schedule_cache_reuses_results(self):
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r")
        sizing = self._sizing(prog)
        first = sizing.schedule({"n": 8, "r": 1})
        second = sizing.schedule({"n": 8, "r": 1})
        assert first is second
        third = sizing.schedule({"n": 16, "r": 1})
        assert third is not first

    def test_cache_key_ignores_array_params(self):
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r")
        sizing = self._sizing(prog)
        a = sizing.schedule({"n": 8, "r": 1, "aux": np.zeros(4)})
        b = sizing.schedule({"n": 8, "r": 1, "aux": np.ones(9)})
        assert a is b


class TestThreadOptions:
    def test_default_yields_three_sizes(self):
        compiler = AdapticCompiler(TESLA_C2050)
        assert compiler._thread_options() == [256, 128, 64]

    def test_small_default_fewer_options(self):
        compiler = AdapticCompiler(
            TESLA_C2050, AdapticOptions(threads=64))
        assert compiler._thread_options() == [64]

    def test_variants_carry_thread_suffix(self):
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r")
        compiled = api.compile(prog)
        strategies = {p.strategy for p in compiled.segments[0].plans}
        assert "reduce.two_kernel@128" in strategies
        assert "reduce.two_kernel@64" in strategies


class TestFusionOrdering:
    def test_greedy_fusion_is_left_to_right(self, rng):
        """scale -> scale -> sum collapses to a single fused reduction."""
        prog = StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n", name="s1"),
                     Filter(SCALE_SRC, pop="n", push="n", name="s2"),
                     Filter(SUM_SRC, pop="n", push=1, name="tot")),
            params=["n", "a"], input_size="n")
        compiled = api.compile(prog)
        assert len(compiled.segments) == 1
        assert compiled.segments[0].kind == "reduction"
        assert compiled.segments[0].actors == ("s1", "s2", "tot")
        data = rng.standard_normal(32)
        result = compiled.run(data, {"n": 32, "a": 2.0})
        assert result.output[0] == pytest.approx(4.0 * data.sum())

    def test_nonfusable_boundary_splits_segments(self):
        """A reduction cannot feed a reduction; segments stay separate."""
        avg_src = """
def avg(m):
    acc = 0.0
    for i in range(m):
        acc = acc + pop()
    push(acc / m)
"""
        prog = StreamProgram(
            Pipeline(Filter(SUM_SRC, pop="n", push=1, name="row_sum"),
                     Filter(avg_src, pop="m", push=1, name="avg")),
            params=["n", "m"], input_size="n*m")
        compiled = api.compile(prog)
        assert len(compiled.segments) == 2
        assert [s.kind for s in compiled.segments] == ["reduction",
                                                       "reduction"]


class TestOptimizationAttribution:
    def test_plan_optimization_tags(self):
        prog = StreamProgram(Filter(SDOT_SRC, pop="2*n", push=1),
                             params=["n", "r"], input_size="2*n*r")
        compiled = api.compile(prog)
        tags = {p.strategy: set(p.optimizations)
                for p in compiled.segments[0].plans}
        assert "memory_restructuring" in tags["reduce.two_kernel+row_soa"]
        assert "memory_restructuring" not in tags["reduce.two_kernel"]
        assert "horizontal_integration" in tags["reduce.rows_merged[4]"]

    def test_fused_plans_tagged_vertical(self):
        prog = StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                     Filter(SUM_SRC, pop="n", push=1)),
            params=["n", "a"], input_size="n")
        compiled = api.compile(prog)
        assert all("vertical_integration" in p.optimizations
                   for p in compiled.segments[0].plans)

    def test_segment_consts_recorded(self):
        src = """
def gemv_row(cols):
    acc = 0.0
    for i in range(cols):
        acc = acc + pop() * vec[i]
    push(acc)
"""
        prog = StreamProgram(
            Filter(src, pop="cols", push=1, consts=("vec",)),
            params=["cols", "rows"], input_size="rows*cols")
        compiled = api.compile(prog)
        assert compiled.segments[0].consts == ("vec",)


class TestFrozenParams:
    """A run's binding: an immutable dict that carries its frozen keys."""

    def _params(self):
        return {"n": 64, "alpha": 0.5, "vec": np.arange(3.0), "r": None}

    def test_keys_are_the_freezes(self):
        params = self._params()
        frozen = FrozenParams(params)
        assert frozen == params
        assert freeze_scalars(frozen) == freeze_scalars(params)
        assert freeze_arrays(frozen) == freeze_arrays(params)
        assert freeze_scalars(frozen) is frozen.scalars

    @pytest.mark.parametrize("mutate", [
        lambda p: p.__setitem__("n", 1), lambda p: p.__delitem__("n"),
        lambda p: p.update(n=1), lambda p: p.setdefault("m", 1),
        lambda p: p.pop("n"), lambda p: p.popitem(), lambda p: p.clear(),
    ], ids=["setitem", "delitem", "update", "setdefault", "pop",
            "popitem", "clear"])
    def test_mutation_raises(self, mutate):
        with pytest.raises(TypeError):
            mutate(FrozenParams(self._params()))

    def test_copies_keep_keys(self):
        frozen = FrozenParams({"n": 64, "alpha": 0.5})
        for other in (copy.copy(frozen),
                      pickle.loads(pickle.dumps(frozen))):
            assert isinstance(other, FrozenParams)
            assert other == frozen and other.scalars == frozen.scalars
