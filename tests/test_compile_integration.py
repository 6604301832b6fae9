"""End-to-end compiler tests: every compiled variant must agree with the
StreamIt reference interpreter, and selection must adapt to the input."""

import numpy as np
import pytest

from repro import (AdapticOptions, Duplicate, Filter, Pipeline, SplitJoin,
                   StreamProgram, TESLA_C2050, GTX_285, roundrobin,
                   run_program, api)
from repro.compiler import AdapticCompiler
from repro.errors import CompileError

from workloads import (ISAMAX_SRC, SAXPY_SRC, SCALE_SRC, SDOT_SRC, SNRM2_SRC,
                      STENCIL5_SRC, SUM_SRC)


def assert_all_variants_match(prog, data, params, spec=TESLA_C2050,
                              options=None):
    """Force-run every variant of every segment against the interpreter."""
    compiled = AdapticCompiler(spec, options).compile(prog)
    reference = run_program(prog, data, params)
    baseline = compiled.run(data, params)
    assert np.allclose(baseline.output, reference, rtol=1e-5, atol=1e-8)
    for segment in compiled.segments:
        for plan in segment.plans:
            if plan.input_layout not in ("interleaved", "rows") \
                    and segment is not compiled.segments[0]:
                continue
            result = compiled.run(data, params,
                                  force={segment.name: plan.strategy})
            assert np.allclose(result.output, reference, rtol=1e-5,
                               atol=1e-8), \
                f"variant {plan.strategy} diverges"
    return compiled


class TestSingleActorPrograms:
    def test_sum_reduction(self, rng):
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r")
        data = rng.standard_normal(96 * 3)
        assert_all_variants_match(prog, data, {"n": 96, "r": 3})

    def test_sdot(self, rng):
        prog = StreamProgram(Filter(SDOT_SRC, pop="2*n", push=1),
                             params=["n"], input_size="2*n")
        data = rng.standard_normal(2 * 200)
        assert_all_variants_match(prog, data, {"n": 200})

    def test_isamax(self, rng):
        prog = StreamProgram(Filter(ISAMAX_SRC, pop="n", push=1),
                             params=["n"], input_size="n")
        data = rng.standard_normal(300)
        assert_all_variants_match(prog, data, {"n": 300})

    def test_saxpy_map(self, rng):
        prog = StreamProgram(Filter(SAXPY_SRC, pop="2*n", push="n"),
                             params=["n", "a"], input_size="2*n")
        data = rng.standard_normal(2 * 100)
        assert_all_variants_match(prog, data, {"n": 100, "a": -1.5})

    def test_stencil(self, rng):
        prog = StreamProgram(
            Filter(STENCIL5_SRC, pop="size", push="size", peek="size"),
            params=["size", "width"], input_size="size")
        data = rng.standard_normal(16 * 8)
        assert_all_variants_match(prog, data, {"size": 128, "width": 16})

    def test_generic_actor(self, rng):
        src = """
def pick(k):
    a = pop()
    b = pop()
    if a > b:
        push(a)
    else:
        push(b)
"""
        prog = StreamProgram(Filter(src, pop=2, push=1), params=["k", "m"],
                             input_size="2*m")
        data = rng.standard_normal(2 * 50)
        assert_all_variants_match(prog, data, {"k": 0, "m": 50})

    def test_gemv_row_with_aux_vector(self, rng):
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
        rows, cols = 6, 64
        matrix = rng.standard_normal(rows * cols)
        vec = rng.standard_normal(cols)
        params = {"cols": cols, "rows": rows, "vec": vec}
        compiled = api.compile(prog)
        result = compiled.run(matrix, params)
        expected = matrix.reshape(rows, cols) @ vec
        assert np.allclose(result.output, expected)


class TestFusionPrograms:
    def test_map_chain_fuses_to_one_segment(self, rng):
        prog = StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n", name="s1"),
                     Filter(SCALE_SRC, pop="n", push="n", name="s2")),
            params=["n", "a"], input_size="n")
        compiled = api.compile(prog)
        assert len(compiled.segments) == 1
        data = rng.standard_normal(64)
        result = compiled.run(data, {"n": 64, "a": 3.0})
        assert np.allclose(result.output, 9.0 * data)

    def test_map_reduce_fusion(self, rng):
        prog = StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                     Filter(SUM_SRC, pop="n", push=1)),
            params=["n", "a"], input_size="n")
        compiled = api.compile(prog)
        assert len(compiled.segments) == 1
        assert compiled.segments[0].kind == "reduction"
        data = rng.standard_normal(128)
        assert_all_variants_match(prog, data, {"n": 128, "a": 0.5})

    def test_integration_off_keeps_segments_separate(self, rng):
        prog = StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                     Filter(SUM_SRC, pop="n", push=1)),
            params=["n", "a"], input_size="n")
        options = AdapticOptions(integration=False)
        compiled = AdapticCompiler(TESLA_C2050, options).compile(prog)
        assert len(compiled.segments) == 2
        data = rng.standard_normal(128)
        result = compiled.run(data, {"n": 128, "a": 0.5})
        assert result.output[0] == pytest.approx(0.5 * data.sum())

    def test_duplicate_splitjoin_horizontal(self, rng):
        max_src = """
def mx(n):
    best = -1e30
    for i in range(n):
        best = max(best, pop())
    push(best)
"""
        prog = StreamProgram(
            SplitJoin(Duplicate(), [Filter(max_src, pop="n", push=1),
                                    Filter(SUM_SRC, pop="n", push=1)],
                      roundrobin(1)),
            params=["n"], input_size="n")
        data = rng.standard_normal(256)
        compiled = assert_all_variants_match(prog, data, {"n": 256})
        strategies = {p.strategy for p in compiled.segments[0].plans}
        assert "hreduce.single_kernel" in strategies

    def test_roundrobin_map_splitjoin(self, rng):
        s1 = "def s1(a):\n    push(a * pop())\n"
        s2 = "def s2(a):\n    push(pop() + a)\n"
        prog = StreamProgram(
            SplitJoin(roundrobin(1, 1),
                      [Filter(s1, pop=1, push=1),
                       Filter(s2, pop=1, push=1)],
                      roundrobin(1, 1)),
            params=["a", "m"], input_size="2*m")
        data = rng.standard_normal(2 * 40)
        compiled = assert_all_variants_match(prog, data, {"a": 2.0, "m": 40})
        assert compiled.segments[0].kind == "map"

    def test_transfer_then_map_becomes_index_translation(self, rng):
        rev = """
def rev(n):
    for i in range(n):
        push(peek(n - 1 - i))
"""
        prog = StreamProgram(
            Pipeline(Filter(rev, pop="n", push="n", peek="n"),
                     Filter(SCALE_SRC, pop="n", push="n")),
            params=["n", "a"], input_size="n")
        compiled = api.compile(prog)
        assert len(compiled.segments) == 1
        data = rng.standard_normal(32)
        result = compiled.run(data, {"n": 32, "a": 2.0})
        assert np.allclose(result.output, 2.0 * data[::-1])
        assert result.selections[0].strategy == "map.index_translated"


class TestInputAdaptiveSelection:
    """The headline behaviour: different inputs pick different kernels."""

    def test_reduction_shape_crossover(self):
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r")
        compiled = api.compile(prog)
        seg = compiled.segments[0]
        # One giant array -> two-kernel; many tiny arrays -> thread/array.
        few_long = compiled.select({"n": 16 << 20, "r": 1})[0].strategy
        many_tiny = compiled.select({"n": 8, "r": 1 << 20})[0].strategy
        assert few_long == "reduce.two_kernel"
        assert many_tiny.startswith("reduce.thread_per_array")
        assert few_long != many_tiny

    def test_restructured_plans_blocked_mid_chain(self, rng):
        # A generic actor after another segment must not pick a
        # restructure-requiring layout (input no longer on the host).
        prog = StreamProgram(
            Pipeline(Filter("def sh(m):\n    for i in range(m):\n"
                            "        push(peek(m - 1 - i))\n",
                            pop="m", push="m", peek="m"),
                     Filter(SDOT_SRC, pop="2*n", push=1)),
            params=["n", "m"], input_size="m")
        options = AdapticOptions(integration=False)
        compiled = AdapticCompiler(TESLA_C2050, options).compile(prog)
        params = {"n": 32, "m": 64}
        plans = compiled.select(params)
        assert plans[1].input_layout in ("interleaved", "rows")

    def test_both_gpu_targets_compile_and_run(self, rng):
        prog = StreamProgram(Filter(SDOT_SRC, pop="2*n", push=1),
                             params=["n"], input_size="2*n")
        data = rng.standard_normal(2 * 64)
        for spec in (TESLA_C2050, GTX_285):
            compiled = AdapticCompiler(spec).compile(prog)
            result = compiled.run(data, {"n": 64})
            expected = data.reshape(64, 2).prod(axis=1).sum()
            assert result.output[0] == pytest.approx(expected, rel=1e-6)


class TestCompiledProgramAPI:
    def _compiled(self):
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r",
                             input_ranges={"n": (256, 1 << 20)})
        return api.compile(prog)

    def test_predicted_seconds_positive(self):
        compiled = self._compiled()
        t = compiled.predicted_seconds({"n": 4096, "r": 4})
        assert 0 < t < 1.0

    def test_variant_count_and_code_size(self):
        compiled = self._compiled()
        assert compiled.variant_count() >= 5
        assert compiled.code_size_ratio() > 1.0

    def test_prune_keeps_only_winners(self):
        compiled = self._compiled()
        before = compiled.variant_count()
        compiled.prune_variants(samples=6, extra_params={"r": 1})
        after = compiled.variant_count()
        assert 1 <= after <= before

    def test_prune_names_a_scalar_missing_from_the_box(self, rng):
        """prune=True over a box without ``a``, which SCALE fused into
        SUM reads, is a CompileError naming ``a`` (it used to escape as
        a raw ExprGenError); pinning ``a`` prunes a program that runs."""
        prog = StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                     Filter(SUM_SRC, pop="n", push=1)),
            params=["n", "a"], input_size="n",
            input_ranges={"n": (16, 4096)})
        with pytest.raises(CompileError, match=r"\['a'\]"):
            api.compile(prog, options=AdapticOptions(prune=True))
        compiled = api.compile(prog)
        compiled.prune_variants(extra_params={"a": 1.5})
        data = rng.standard_normal(100)
        result = compiled.run(data, {"n": 100, "a": 1.5})
        assert np.allclose(result.output,
                           run_program(prog, data, {"n": 100, "a": 1.5}))

    def test_cuda_source_nonempty(self):
        compiled = self._compiled()
        src = compiled.cuda_source()
        assert "__global__" in src

    def test_describe_lists_variants(self):
        compiled = self._compiled()
        text = compiled.describe()
        assert "reduce.two_kernel" in text

    def test_wrong_input_length_rejected(self, rng):
        compiled = self._compiled()
        with pytest.raises(ValueError):
            compiled.run(rng.standard_normal(10), {"n": 4, "r": 1})
