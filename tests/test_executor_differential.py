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
from repro.apps import convolution
from repro.compiler.reducers import ArgReducer, ScalarReducer, reducer_for
from repro.gpu import (Device, DeviceArray, MODE_REFERENCE, MODE_VECTORIZED,
                       TESLA_C2050)
from repro.ir import classify, lift_code
from repro.ir import nodes as N

from workloads import (ISAMAX_SRC, SAXPY_SRC, SCALE_SRC, SDOT_SRC,
                       STENCIL5_SRC, STENCIL_ONE_SIDED_SRC,
                       STENCIL_ONE_SIDED_UNGUARDED_SRC,
                       STENCIL_RADIUS2_INDEXED_SRC, SUM_SRC)

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

    def test_full_steps(self, rng):
        """``n`` fills every grid-stride step: 3 blocks of 64 threads,
        4 items each, and no ragged last step."""
        pattern = classify(lift_code(SAXPY_SRC)).pattern
        shape = MapShape(lambda p: p["n"], 2, 1)
        plan = MapPlan(SPEC, "saxpy", shape, pattern.outputs, threads=64,
                       items_per_thread=4)
        n = 4 * 64 * 3
        assert_differential(plan, rng.standard_normal(2 * n),
                            {"n": n, "a": 0.75})

    def test_single_partial_block(self, rng):
        """Fewer live threads than one block: heavy masking."""
        pattern = classify(lift_code(SAXPY_SRC)).pattern
        shape = MapShape(lambda p: p["n"], 2, 1)
        plan = MapPlan(SPEC, "saxpy", shape, pattern.outputs, threads=256)
        params = {"n": 37, "a": -1.25}
        assert_differential(plan, rng.standard_normal(74), params)

    @pytest.mark.parametrize("kwargs", [{}, {"items_per_thread": 3}],
                             ids=["grid_stride", "thread_merged"])
    def test_gather_variants(self, rng, kwargs):
        """Index-translated loads (``gather=``, a transfer actor folded
        into its consumer): lane ``i`` reads element ``n - 1 - i``."""
        pattern = classify(lift_code(SCALE_SRC)).pattern
        reverse = N.BinOp("-", N.BinOp("-", N.Var("n"), N.Const(1)),
                          N.Var("_i"))
        shape = MapShape(lambda p: p["n"], 1, 1)
        plan = MapPlan(SPEC, "reverse_scale", shape, pattern.outputs,
                       threads=64, gather=reverse, **kwargs)
        assert plan.strategy == "map.index_translated"
        n = int(rng.integers(150, 1200))
        data = rng.standard_normal(n)
        out = assert_differential(plan, data, {"n": n, "a": 1.5})
        assert out.tobytes() == (1.5 * data[::-1]).tobytes()


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
    def _check(self, rng, plan_cls, src, threads=64, dims=None, **kw):
        """``dims`` is ``(width, height)``; random when omitted."""
        cls = classify(lift_code(src))
        shape = StencilShape(lambda p: p["width"],
                             lambda p: p["size"] // p["width"])
        plan = plan_cls(SPEC, "st", shape, cls.pattern, threads=threads,
                        **kw)
        width, height = dims or (int(rng.integers(17, 64)),
                                 int(rng.integers(9, 48)))
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

    @pytest.mark.parametrize("threads,tile", [
        # A 128-cell compute loop of one trip in a block of 256.
        pytest.param(256, (32, 4), id="ragged_compute"),
        # Each trip of the compute loop lies inside one tile row.
        pytest.param(64, (128, 4), id="rows_wider_than_block"),
        pytest.param(32, (64, 3), id="rows_wider_odd_height"),
        # 34 * 6 = 204 staged cells: 3 full staging trips and one of 12.
        pytest.param(64, (32, 4), id="ragged_staging"),
        # Neither the block nor the tile width is a power of two.
        pytest.param(48, (32, 4), id="threads_48"),
        pytest.param(64, (48, 4), id="tile_width_48"),
    ])
    @pytest.mark.parametrize("src", [STENCIL5_SRC, STENCIL_ONE_SIDED_SRC],
                             ids=["stencil5", "one_sided"])
    def test_tiled_steps(self, rng, src, threads, tile):
        """Fixed tiles whose loop trips cover whole tile rows, part of
        one row, or fewer lanes than the block."""
        self._check(rng, TiledStencilPlan, src, threads=threads, tile=tile)

    @pytest.mark.parametrize("plan_cls", [NaiveStencilPlan,
                                          TiledStencilPlan])
    def test_body_reads_cell_index(self, rng, plan_cls):
        """Radius 2: the compute and the fallback read ``_i``, so a
        vector body that leaves the index out cannot pass."""
        cls = classify(lift_code(STENCIL_RADIUS2_INDEXED_SRC))
        assert "_i" in str(cls.pattern.guard_else)
        self._check(rng, plan_cls, STENCIL_RADIUS2_INDEXED_SRC)

    @pytest.mark.parametrize("src", [convolution.row_source(4),
                                     convolution.col_source(4)],
                             ids=["row_halo_4x0", "col_halo_0x4"])
    def test_one_axis_halo(self, rng, src):
        """Radius-4 halos on one axis only: wide halo columns, or tall
        halo rows, and none on the other axis."""
        self._check(rng, TiledStencilPlan, src)

    @pytest.mark.parametrize("dims", [(70, 37), (130, 9), (33, 64)],
                             ids=["70x37", "130x9", "33x64"])
    @pytest.mark.parametrize("src", [STENCIL5_SRC,
                                     STENCIL_RADIUS2_INDEXED_SRC],
                             ids=["stencil5", "radius2"])
    def test_partial_tiles(self, rng, src, dims):
        """Several tiles with a partial last one: their halo windows
        leave the image and their stores are masked to it."""
        self._check(rng, TiledStencilPlan, src, dims=dims)


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
