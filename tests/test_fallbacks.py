"""Tests for the compiler's fallback paths: CPU subgraphs, odd structures,
and failure modes that must degrade gracefully rather than crash."""

import numpy as np
import pytest

from repro import (AdapticOptions, Duplicate, Filter, Pipeline, SplitJoin,
                   StreamProgram, roundrobin, api)
from repro.compiler import AdapticCompiler, CompileError
from repro.gpu import TESLA_C2050
from repro.streamit import run_program

from workloads import SCALE_SRC, STENCIL5_SRC, SUM_SRC


class TestCpuSubgraphFallback:
    def test_mixed_splitjoin_falls_back(self, rng):
        """Duplicate split-join mixing a reduction and a map has no GPU
        template; the whole subgraph must still compile and run (on the
        host)."""
        prog = StreamProgram(
            SplitJoin(Duplicate(),
                      [Filter(SUM_SRC, pop="n", push=1),
                       Filter(SCALE_SRC, pop="n", push="n")],
                      roundrobin(1, "n")),
            params=["n", "a"], input_size="n")
        compiled = api.compile(prog)
        assert compiled.segments[0].kind == "cpu"
        data = rng.standard_normal(16)
        params = {"n": 16, "a": 2.0}
        ref = run_program(prog, data, params)
        result = compiled.run(data, params)
        assert np.allclose(result.output, ref)
        assert result.selections[0].strategy == "cpu.subgraph"

    def test_nested_splitjoin_falls_back(self, rng):
        inner = SplitJoin(Duplicate(),
                          [Filter(SUM_SRC, pop="n", push=1),
                           Filter(SUM_SRC, pop="n", push=1)],
                          roundrobin(1))
        outer = SplitJoin(Duplicate(),
                          [inner, Filter(SUM_SRC, pop="n", push=1)],
                          roundrobin(2, 1))
        prog = StreamProgram(outer, params=["n"], input_size="n")
        compiled = api.compile(prog)
        assert compiled.segments[0].kind == "cpu"
        data = rng.standard_normal(12)
        ref = run_program(prog, data, {"n": 12})
        result = compiled.run(data, {"n": 12})
        assert np.allclose(result.output, ref)

    def test_cpu_plan_cost_scales(self):
        prog = StreamProgram(
            SplitJoin(Duplicate(),
                      [Filter(SUM_SRC, pop="n", push=1),
                       Filter(SCALE_SRC, pop="n", push="n")],
                      roundrobin(1, "n")),
            params=["n", "a"], input_size="n")
        compiled = api.compile(prog)
        small = compiled.predicted_seconds({"n": 1 << 8, "a": 1.0})
        large = compiled.predicted_seconds({"n": 1 << 18, "a": 1.0})
        assert large > small


class TestCompileErrors:
    def test_multi_invocation_stencil_rejected_at_runtime(self, rng):
        prog = StreamProgram(
            Filter(STENCIL5_SRC, pop="size", push="size", peek="size"),
            params=["size", "width"], input_size="2*size")
        compiled = api.compile(prog)
        # Two steady states => two stencil invocations: refused clearly.
        data = rng.standard_normal(2 * 64)
        with pytest.raises(CompileError):
            compiled.run(data, {"size": 64, "width": 8})

    def test_indivisible_input_size_rejected(self):
        from repro.compiler.adaptic import _Sizing
        from repro.streamit import flatten
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r + 1")
        sizing = _Sizing(prog, flatten(prog.top))
        with pytest.raises(CompileError):
            sizing.steady_states({"n": 4, "r": 2})


class TestSelectionRobustness:
    def test_every_optimization_config_compiles_everything(self, rng):
        """All 4 Figure-11 configurations must compile and run the same
        program correctly."""
        prog = StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                     Filter(SUM_SRC, pop="n", push=1)),
            params=["n", "a"], input_size="n")
        data = rng.standard_normal(48)
        params = {"n": 48, "a": 1.5}
        expected = 1.5 * data.sum()
        configs = [
            AdapticOptions.baseline(),
            AdapticOptions(segmentation=True, memory=False,
                           integration=False),
            AdapticOptions(segmentation=True, memory=True,
                           integration=False),
            AdapticOptions(),
        ]
        for options in configs:
            compiled = AdapticCompiler(TESLA_C2050, options).compile(prog)
            result = compiled.run(data, params)
            assert result.output[0] == pytest.approx(expected), \
                options.label()

    def test_baseline_has_single_variant_per_segment(self):
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r")
        compiled = AdapticCompiler(
            TESLA_C2050, AdapticOptions.baseline()).compile(prog)
        assert len(compiled.segments[0].plans) == 1

    def test_prune_on_program_without_ranges_is_noop(self):
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r")
        compiled = api.compile(prog)
        before = compiled.variant_count()
        compiled.prune_variants()
        assert compiled.variant_count() == before
