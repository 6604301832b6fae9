"""Differential harness: reference interpreter vs vectorized executor.

Every plan family's kernels run through BOTH executor paths on
randomized shapes.  The contract is strict:

* output buffers must be **bit-identical** (``tobytes`` equality, not
  ``allclose``);
* the traced :class:`~repro.gpu.executor.LaunchStats` must match field
  for field — transactions, requests, coalescing, bank conflicts and
  barrier counts — so the fast path can never skew the memory model the
  compiler's cost functions are calibrated against;
* the vectorized path with tracing off — the one every benchmark and
  served request takes — must write the traced run's bytes.

The whole module carries the ``differential`` marker so CI can select
it (``-m differential``) or skip it; it runs in tier-1 by default.
"""

import dataclasses

import numpy as np
import pytest

from repro.compiler.plans import (LAYOUT_RESTRUCTURED, MapPlan, MapShape,
                                  NaiveStencilPlan, StencilShape,
                                  TiledStencilPlan)
from repro.compiler.plans.multireduce import HorizontalReducePlan
from repro.compiler.plans.reduceplan import (LAYOUT_ROW_SOA,
                                             LAYOUT_TRANSPOSED, ReduceShape,
                                             ReduceSingleKernelPlan,
                                             ReduceThreadPerArrayPlan,
                                             ReduceTwoKernelPlan)
from repro.compiler.reducers import ArgReducer, ScalarReducer, reducer_for
from repro.gpu import (Device, DeviceArray, MODE_REFERENCE, MODE_VECTORIZED,
                       TESLA_C2050)
from repro.ir import classify, lift_code

from workloads import (ISAMAX_SRC, SAXPY_SRC, SCALE_SRC, SDOT_SRC,
                       STENCIL5_SRC, STENCIL_ONE_SIDED_SRC,
                       STENCIL_ONE_SIDED_UNGUARDED_SRC, SUM_SRC)
from repro.compiler import RunOptions

pytestmark = pytest.mark.differential

SPEC = TESLA_C2050


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_mode(plan, data, params, mode, traced=True):
    """Execute ``plan`` under one executor mode, tracing every launch
    (or, with ``traced=False``, none).

    Returns (output copy, [LaunchStats...], executor).  The device-array
    base allocator is reset so both modes see identical addresses and
    the traced transaction counts are comparable.
    """
    DeviceArray.reset_base_allocator()
    dev = Device(SPEC, exec_mode=mode)
    stats = []
    orig = dev.launch

    def launch(kernel, grid, block, args, trace=False, mode=None):
        st = orig(kernel, grid, block, args, trace=traced, mode=mode)
        stats.append(st)
        return st

    dev.launch = launch
    staged = plan.restructure_input(np.asarray(data), params)
    buf = dev.to_device(staged, "in")
    out = plan.execute(dev, {"in": buf}, params)
    return out.data.copy(), stats, dev.executor


def assert_differential(plan, data, params):
    """Both paths must produce bit-identical buffers and stats, and the
    untraced vectorized path the traced one's buffers."""
    ref, ref_stats, ref_ex = run_mode(plan, data, params, MODE_REFERENCE)
    vec, vec_stats, vec_ex = run_mode(plan, data, params, MODE_VECTORIZED)
    fast, _, fast_ex = run_mode(plan, data, params, MODE_VECTORIZED,
                                traced=False)
    assert ref_ex.reference_launches > 0
    assert ref_ex.vectorized_launches == 0
    assert vec_ex.vectorized_launches > 0, "fast path never engaged"
    assert vec_ex.vector_fallbacks == 0, "fast path silently fell back"
    assert ref.dtype == vec.dtype
    assert ref.tobytes() == vec.tobytes(), (
        f"outputs differ at {np.nonzero(ref != vec)[0][:8]}")
    assert len(ref_stats) == len(vec_stats)
    for a, b in zip(ref_stats, vec_stats):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert fast_ex.vectorized_launches == vec_ex.vectorized_launches
    assert fast_ex.vector_fallbacks == 0
    assert fast.tobytes() == vec.tobytes(), (
        f"untraced outputs differ at {np.nonzero(fast != vec)[0][:8]}")
    return ref


# ----------------------------------------------------------------------
# Map plans
# ----------------------------------------------------------------------
class TestMapDifferential:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"layout": LAYOUT_RESTRUCTURED},
        {"items_per_thread": 4},
        {"items_per_thread": 3, "layout": LAYOUT_RESTRUCTURED},
    ])
    def test_saxpy_variants(self, rng, kwargs):
        pattern = classify(lift_code(SAXPY_SRC)).pattern
        shape = MapShape(lambda p: p["n"], 2, 1)
        n = int(rng.integers(200, 3000))
        plan = MapPlan(SPEC, "saxpy", shape, pattern.outputs,
                       threads=64, **kwargs)
        params = {"n": n, "a": 2.5}
        data = rng.standard_normal(2 * n)
        assert_differential(plan, data, params)

    def test_single_partial_block(self, rng):
        """Fewer live threads than one block: heavy masking."""
        pattern = classify(lift_code(SAXPY_SRC)).pattern
        shape = MapShape(lambda p: p["n"], 2, 1)
        plan = MapPlan(SPEC, "saxpy", shape, pattern.outputs, threads=256)
        params = {"n": 37, "a": -1.25}
        assert_differential(plan, rng.standard_normal(74), params)


# ----------------------------------------------------------------------
# Reduce plans
# ----------------------------------------------------------------------
class TestReduceDifferential:
    def _plan(self, plan_cls, rng, r=None, n=None, **kw):
        """An sdot plan (64 threads unless ``kw`` says otherwise) and its
        input; ``r`` arrays of ``n`` elements, drawn when not given."""
        cls = classify(lift_code(SDOT_SRC))
        shape = ReduceShape(lambda p: p.get("r", 1), lambda p: p["n"], 2)
        plan = plan_cls(SPEC, "sdot", shape,
                        lambda p: reducer_for(cls, p), **{"threads": 64, **kw})
        r = int(rng.integers(1, 9)) if r is None else r
        n = int(rng.integers(100, 900)) if n is None else n
        return plan, {"r": r, "n": n}, rng.standard_normal(r * n * 2)

    @pytest.mark.parametrize("plan_cls,kw", [
        (ReduceSingleKernelPlan, {}),
        (ReduceSingleKernelPlan, {"rows_per_block": 3}),
        (ReduceTwoKernelPlan, {}),
        (ReduceThreadPerArrayPlan, {"layout": LAYOUT_TRANSPOSED}),
        (ReduceThreadPerArrayPlan, {"layout": LAYOUT_ROW_SOA}),
        # Rows no longer than a block, so most tree lanes hold the
        # identity; with 3 rows per block the last of 7 rows' group is
        # partial.
        *[pytest.param(ReduceSingleKernelPlan,
                       {"rows_per_block": rows, "r": 7, "n": n},
                       id=f"single-rows{rows}-n{n}")
          for rows in (1, 3) for n in (1, 4, 63, 64, 65)],
        # 64 partials for 32 merge threads: two merge accumulation steps.
        pytest.param(ReduceTwoKernelPlan, {"threads": 32, "r": 1, "n": 2100},
                     id="two_kernel-64_partials"),
    ])
    def test_sdot_variants(self, rng, plan_cls, kw):
        plan, params, data = self._plan(plan_cls, rng, **kw)
        assert_differential(plan, data, params)

    def test_argreduce(self, rng):
        """(value, index) state pairs through the tree reduction, on a
        drawn row length and on rows shorter than a warp."""
        acls = classify(lift_code(ISAMAX_SRC))
        shape = ReduceShape(lambda p: p.get("r", 1), lambda p: p["n"], 1)
        plan = ReduceSingleKernelPlan(SPEC, "isamax", shape,
                                      lambda p: reducer_for(acls, p),
                                      threads=64)
        for n in (int(rng.integers(100, 1200)), 5):
            params = {"r": 3, "n": n}
            assert_differential(plan, rng.standard_normal(3 * n), params)

    @pytest.mark.parametrize("two_kernel", [False, True])
    def test_horizontal_mixed_widths(self, rng, two_kernel):
        """A scalar sum fused with an arg-max: mixed state widths, on a
        drawn row length and on rows shorter than a warp."""
        sum_pat = classify(lift_code(SUM_SRC)).pattern
        argmax_pat = classify(lift_code(ISAMAX_SRC)).pattern
        fns = [lambda p: ScalarReducer(sum_pat, p),
               lambda p: ArgReducer(argmax_pat, p)]
        shape = ReduceShape(lambda p: 3, lambda p: p["n"], 1)
        plan = HorizontalReducePlan(SPEC, "mixed", shape, fns,
                                    threads=64, two_kernel=two_kernel)
        for n in (int(rng.integers(100, 700)), 5):
            assert_differential(plan, rng.standard_normal(3 * n), {"n": n})


# ----------------------------------------------------------------------
# Stencil plans
# ----------------------------------------------------------------------
class TestStencilDifferential:
    def _check(self, rng, plan_cls, src):
        cls = classify(lift_code(src))
        shape = StencilShape(lambda p: p["width"],
                             lambda p: p["size"] // p["width"])
        plan = plan_cls(SPEC, "st", shape, cls.pattern, threads=64)
        width = int(rng.integers(17, 64))
        height = int(rng.integers(9, 48))
        params = {"size": width * height, "width": width}
        assert_differential(plan, rng.standard_normal(width * height),
                            params)

    @pytest.mark.parametrize("plan_cls", [NaiveStencilPlan,
                                          TiledStencilPlan])
    def test_stencil5(self, rng, plan_cls):
        self._check(rng, plan_cls, STENCIL5_SRC)

    @pytest.mark.parametrize("plan_cls", [NaiveStencilPlan,
                                          TiledStencilPlan])
    @pytest.mark.parametrize("src", [STENCIL_ONE_SIDED_SRC,
                                     STENCIL_ONE_SIDED_UNGUARDED_SRC],
                             ids=["guarded", "unguarded"])
    def test_one_sided(self, rng, plan_cls, src):
        """The extreme taps are not mirror images, as they are in the
        5-point stencil.  The naive plan tests its taps only when the
        stencil has no guard of its own."""
        self._check(rng, plan_cls, src)


# ----------------------------------------------------------------------
# Fused segment chains: one emitted kernel vs per-segment launches
# ----------------------------------------------------------------------
SQUARE_SRC = """
def square(n):
    for i in range(n):
        x = pop()
        push(x * x + 0.5)
"""

OFFSET_SRC = """
def offset(n, a):
    for i in range(n):
        push(pop() - a)
"""


@pytest.mark.fusedexec
class TestFusedChainDifferential:
    """Fused vectorized execution vs the unfused coroutine oracle.

    The chain matrix covers every fusable plan-family combination: the
    plain grid-stride map, the SoA-restructured variant (first segment,
    host-staged), the thread-merged variant, the gather
    (index-translated) variant, multi-stage chains, and a
    whole-stream-reduction terminator that must stay outside the span.
    Contract is the executor differential's: ``tobytes`` equality, not
    ``allclose``.
    """

    def _compile_pair(self, prog):
        from repro.compiler import AdapticCompiler, AdapticOptions
        unfused = AdapticCompiler(
            SPEC, AdapticOptions(integration=False)).compile(prog)
        fused = AdapticCompiler(
            SPEC, AdapticOptions(integration=False, fuse_chains=True,
                                 fuse_min_gain=0.0)).compile(prog)
        return unfused, fused

    def _assert_fused_identical(self, prog, data, params, force=None,
                                expect_spans=1):
        from repro.gpu import ExecMode
        unfused, fused = self._compile_pair(prog)
        oracle = unfused.run(data, params, force=force,
                             options=RunOptions(exec_mode=ExecMode.REFERENCE))
        vec = unfused.run(data, params, force=force,
                          options=RunOptions(exec_mode=ExecMode.VECTORIZED))
        fus = fused.run(data, params, force=force,
                        options=RunOptions(exec_mode=ExecMode.VECTORIZED))
        assert vec.output.tobytes() == oracle.output.tobytes()
        assert fus.output.tobytes() == oracle.output.tobytes()
        assert fused.stats.fused_chain_runs == expect_spans
        dev = fused._run_devices[ExecMode.VECTORIZED]
        assert dev.executor.fused_chain_launches == expect_spans
        if expect_spans:
            fused_rows = [sel for sel in fus.selections
                          if "chain_fusion" in sel.optimizations]
            assert len(fused_rows) >= 2
        return oracle, fus

    def test_grid_stride_pair(self, rng):
        from repro import Filter, Pipeline, StreamProgram
        prog = StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                     Filter(SQUARE_SRC, pop="n", push="n")),
            params=["n", "a"], input_size="n")
        n = int(rng.integers(200, 3000))
        self._assert_fused_identical(prog, rng.standard_normal(n),
                                     {"n": n, "a": 1.75})

    def test_soa_first_stage(self, rng):
        """k=2 first segment forced onto the SoA layout, host-staged."""
        from repro import Filter, Pipeline, StreamProgram
        prog = StreamProgram(
            Pipeline(Filter(SAXPY_SRC, pop="2*n", push="n"),
                     Filter(SQUARE_SRC, pop="n", push="n")),
            params=["n", "a"], input_size="2*n")
        n = int(rng.integers(200, 2000))
        unfused, fused = self._compile_pair(prog)
        seg0 = fused.segments[0].name
        force = {seg0: "map.grid_stride+soa"}
        from repro.gpu import ExecMode
        data = rng.standard_normal(2 * n)
        params = {"n": n, "a": -0.75}
        oracle = unfused.run(data, params, force=force,
                             options=RunOptions(exec_mode=ExecMode.REFERENCE))
        fus = fused.run(data, params, force=force,
                        options=RunOptions(exec_mode=ExecMode.VECTORIZED))
        assert fus.output.tobytes() == oracle.output.tobytes()
        assert fused.stats.fused_chain_runs == 1
        assert fus.selections[0].strategy == "map.grid_stride+soa"

    def test_three_stage_chain(self, rng):
        from repro import Filter, Pipeline, StreamProgram
        prog = StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                     Filter(SQUARE_SRC, pop="n", push="n"),
                     Filter(OFFSET_SRC, pop="n", push="n")),
            params=["n", "a"], input_size="n")
        n = int(rng.integers(300, 2500))
        oracle, fus = self._assert_fused_identical(
            prog, rng.standard_normal(n), {"n": n, "a": 0.3})
        assert all("chain_fusion" in sel.optimizations
                   for sel in fus.selections)

    def test_reduction_terminates_chain(self, rng):
        """A whole-stream reduction rides behind the span, never in it."""
        from repro import Filter, Pipeline, StreamProgram
        prog = StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                     Filter(SQUARE_SRC, pop="n", push="n"),
                     Filter(SUM_SRC, pop="n", push=1)),
            params=["n", "a"], input_size="n")
        n = int(rng.integers(300, 2500))
        oracle, fus = self._assert_fused_identical(
            prog, rng.standard_normal(n), {"n": n, "a": 2.25})
        assert "chain_fusion" not in fus.selections[-1].optimizations

    def test_plan_level_matrix(self, rng):
        """Direct exprgen-level matrix: every fusable variant family.

        Chains built from hand-constructed MapPlans (thread-merged,
        SoA, gather/index-translated) so combinations the compiler's
        variant generator only emits under specific shapes are still
        exercised.  The oracle is the unfused per-plan execution under
        the reference (coroutine) interpreter.
        """
        from repro.compiler.exprgen import compile_chain_fn
        from repro.ir import nodes as N
        pattern = classify(lift_code(SCALE_SRC)).pattern
        sq_pattern = classify(lift_code(SQUARE_SRC)).pattern
        n = int(rng.integers(150, 1200))
        params = {"n": n, "a": 1.5}
        shape1 = MapShape(lambda p: p["n"], 1, 1)
        reverse = N.BinOp("-", N.BinOp("-", N.Var("n"), N.Const(1)),
                          N.Var("_i"))
        combos = [
            [MapPlan(SPEC, "m0", shape1, pattern.outputs, threads=64),
             MapPlan(SPEC, "m1", shape1, sq_pattern.outputs, threads=64,
                     items_per_thread=3)],
            [MapPlan(SPEC, "g0", shape1, pattern.outputs, threads=64,
                     gather=reverse),
             MapPlan(SPEC, "g1", shape1, sq_pattern.outputs, threads=64)],
            [MapPlan(SPEC, "t0", shape1, sq_pattern.outputs, threads=64,
                     items_per_thread=4),
             MapPlan(SPEC, "t1", shape1, pattern.outputs, threads=64,
                     gather=reverse)],
        ]
        for plans in combos:
            data = rng.standard_normal(n)
            dev = Device(SPEC, exec_mode=MODE_REFERENCE)
            buf = dev.to_device(np.asarray(data), "in")
            for plan in plans:
                buf = plan.execute(dev, {"in": buf}, params)
            oracle = buf.data.copy()
            stages = [plan.chain_stage(params) for plan in plans]
            chain_id = "->".join(plan.name for plan in plans)
            fn = compile_chain_fn(stages, params, chain_id=chain_id)
            vdev = Device(SPEC, exec_mode=MODE_VECTORIZED)
            bufs = ([np.asarray(data, dtype=np.float64)]
                    + [np.zeros(plan.output_size(params))
                       for plan in plans])
            vdev.launch_fused_chain(fn, bufs)
            assert bufs[-1].tobytes() == oracle.tobytes(), chain_id
            assert vdev.executor.fused_chain_launches == 1


# ----------------------------------------------------------------------
# End-to-end: compiled programs through the figure drivers' checks
# ----------------------------------------------------------------------
class TestCompiledDifferential:
    def test_fig09_sdot(self):
        from repro.experiments import fig09
        fig09.functional_check("sdot", n=2048)

    def test_fig10_tmv(self):
        from repro.experiments import fig10
        fig10.functional_check(rows=24, cols=96)

    def test_fig11_steps(self):
        from repro.experiments import fig11
        checked = fig11.functional_check(n=64)
        assert "omega_dots" in checked and "x_update" in checked
