"""Tests for the analytic performance model and break-even machinery."""

import math

import pytest

from repro.gpu import GTX_285, TESLA_C2050
from repro.errors import ModelSweepError
from repro.perfmodel import (AxisSpec, KernelCategory, KernelWorkload,
                             PerformanceModel, Variant, argmin_variant,
                             geometric_points, sweep_region)


def one_axis_sweep(variants, lo, hi, samples, refine=True):
    """A one-axis region sweep over ``n``; variants take ``n`` itself."""
    wrapped = [Variant(v.name, lambda values, v=v: v.time(values[0]))
               for v in variants]
    return sweep_region(wrapped, [AxisSpec("n", lo, hi, samples)],
                        refine=refine)


def subranges(table):
    """``[(lo, hi, winner)]`` of a one-axis table, in lookup order."""
    return [(box["n"][0], box["n"][1], winner)
            for box, winner in table.leaves()]


@pytest.fixture
def model():
    return PerformanceModel(TESLA_C2050)


def streaming_workload(blocks, threads=256, loads_per_warp=64.0):
    """A bandwidth-streaming kernel: light compute per load."""
    return KernelWorkload(
        blocks=blocks, threads_per_block=threads,
        comp_insts=loads_per_warp * 2, coal_mem_insts=loads_per_warp,
        regs_per_thread=16, shared_per_block=0)


class TestClassification:
    def test_memory_bound_when_streaming(self, model):
        est = model.estimate(streaming_workload(blocks=2000))
        assert est.category is KernelCategory.MEMORY_BOUND

    def test_compute_bound_when_flops_dominate(self, model):
        work = KernelWorkload(blocks=2000, threads_per_block=256,
                              comp_insts=10000.0, coal_mem_insts=2.0)
        est = model.estimate(work)
        assert est.category is KernelCategory.COMPUTE_BOUND

    def test_latency_bound_with_few_blocks(self, model):
        est = model.estimate(streaming_workload(blocks=2))
        assert est.category is KernelCategory.LATENCY_BOUND

    def test_latency_bound_from_shared_pressure(self, model):
        work = KernelWorkload(blocks=2000, threads_per_block=256,
                              comp_insts=100.0, coal_mem_insts=50.0,
                              shared_per_block=40 * 1024)
        est = model.estimate(work)
        # Only one block fits per SM -> 8 warps; still above threshold,
        # but fewer active warps than the unconstrained case.
        unconstrained = model.estimate(streaming_workload(2000))
        assert est.active_warps < unconstrained.active_warps

    def test_pure_compute_no_memory(self, model):
        work = KernelWorkload(blocks=100, threads_per_block=256,
                              comp_insts=1000.0, coal_mem_insts=0.0)
        est = model.estimate(work)
        assert est.category is KernelCategory.COMPUTE_BOUND
        assert math.isfinite(est.cycles)


class TestMonotonicity:
    def test_more_work_takes_longer(self, model):
        t1 = model.estimate(streaming_workload(100, loads_per_warp=32)).seconds
        t2 = model.estimate(streaming_workload(100, loads_per_warp=64)).seconds
        assert t2 > t1

    def test_uncoalesced_slower_than_coalesced(self, model):
        coal = KernelWorkload(blocks=500, threads_per_block=256,
                              comp_insts=128.0, coal_mem_insts=64.0)
        uncoal = KernelWorkload(blocks=500, threads_per_block=256,
                                comp_insts=128.0, coal_mem_insts=0.0,
                                uncoal_mem_insts=64.0, uncoal_degree=32.0)
        assert (model.estimate(uncoal).seconds
                > 2 * model.estimate(coal).seconds)

    def test_tiny_blocks_dominated_by_overhead(self, model):
        # Same total work split over 100x more blocks costs more.
        few = streaming_workload(blocks=1000, loads_per_warp=100)
        many = streaming_workload(blocks=100000, loads_per_warp=1)
        assert model.estimate(many).seconds > model.estimate(few).seconds

    def test_unrunnable_config_is_infinite(self, model):
        work = KernelWorkload(blocks=10, threads_per_block=256,
                              comp_insts=10.0, coal_mem_insts=10.0,
                              shared_per_block=64 * 1024)
        assert model.estimate(work).seconds == math.inf

    def test_zero_blocks_is_zero_time(self, model):
        work = KernelWorkload(blocks=0, threads_per_block=256,
                              comp_insts=1.0, coal_mem_insts=1.0)
        assert model.estimate(work).seconds == 0.0


class TestFigure1Shape:
    """The TMV three-regime curve: low utilization / efficient / overhead."""

    def _gflops(self, model, rows, total=4 * 1024 * 1024):
        cols = total // rows
        threads = 256
        warps = threads // 32
        loads = 2 * cols / 32 / warps
        work = KernelWorkload(
            blocks=rows, threads_per_block=threads,
            comp_insts=loads * 2, coal_mem_insts=loads,
            synch_insts=8, regs_per_thread=18,
            shared_per_block=threads * 4)
        secs = (model.estimate(work).seconds
                + model.spec.kernel_launch_overhead_us * 1e-6)
        return 2 * total / secs / 1e9

    def test_three_regimes(self, model):
        low_util = self._gflops(model, rows=4)
        efficient = self._gflops(model, rows=2048)
        overhead = self._gflops(model, rows=1024 * 1024)
        assert efficient > 3 * low_util
        assert efficient > 10 * overhead

    def test_both_targets_show_the_shape(self):
        for spec in (TESLA_C2050, GTX_285):
            m = PerformanceModel(spec)
            assert self._gflops(m, 2048) > 2 * self._gflops(m, 4)


class TestBreakeven:
    def test_sweep_picks_pointwise_winner(self):
        fast_small = Variant("small", lambda n: n * 1.0)
        fast_large = Variant("large", lambda n: 100 + n * 0.1)
        table = one_axis_sweep([fast_small, fast_large], 1, 10000, samples=5)
        assert table.lookup({"n": 1}) == "small"
        assert table.lookup({"n": 10000}) == "large"
        assert table.winners == ["small", "large"]
        assert table.n_leaves == 2

    def test_crossover_location(self):
        a = Variant("a", lambda n: n * 1.0)
        b = Variant("b", lambda n: 100 + n * 0.1)
        table = one_axis_sweep([a, b], 50, 190, samples=15, refine=False)
        boundary = next(hi for _lo, hi, name in subranges(table)
                        if name == "a")
        assert 100 <= boundary <= 120  # analytic crossover at ~111

    def test_infinite_variant_never_selected(self):
        a = Variant("a", lambda n: math.inf)
        b = Variant("b", lambda n: 1.0)
        table = one_axis_sweep([a, b], 1, 2, samples=2)
        assert table.winners == ["b"]

    def test_all_infinite_raises(self):
        a = Variant("a", lambda n: math.inf)
        with pytest.raises(ModelSweepError):
            one_axis_sweep([a], 1, 1, samples=2)

    def test_argmin_variant(self):
        a = Variant("a", lambda n: n)
        b = Variant("b", lambda n: 10 - n)
        assert argmin_variant([a, b], 2).name == "a"
        assert argmin_variant([a, b], 9).name == "b"

    def test_geometric_points_cover_endpoints(self):
        points = geometric_points(64, 4096, 7)
        assert points[0] == 64 and points[-1] == 4096
        assert points == sorted(points)

    def test_geometric_points_degenerate(self):
        assert geometric_points(8, 8, 5) == [8]
        with pytest.raises(ValueError):
            geometric_points(0, 10, 3)

    def test_geometric_points_narrow_range_stays_sorted_unique(self):
        # Rounding collapses neighbouring samples; endpoint pinning must
        # not reintroduce duplicates or break the ordering.
        for lo, hi, samples in [(10, 12, 9), (2, 3, 16), (100, 101, 5),
                                (7, 8192, 40)]:
            points = geometric_points(lo, hi, samples)
            assert points == sorted(set(points))
            assert points[0] == lo and points[-1] == hi
            assert all(lo <= p <= hi for p in points)

    def test_geometric_points_float_bounds(self):
        points = geometric_points(10.5, 1000.9, 6)
        assert points[0] == 11 and points[-1] == 1000
        assert points == sorted(set(points))
        # A range with no integer collapses to the nearest one.
        assert geometric_points(5.2, 5.9, 4) == [5]

    def test_geometric_points_samples_exceed_integers(self):
        points = geometric_points(3, 6, 50)
        assert points == [3, 4, 5, 6]


class TestSweepAxis:
    """One-axis region sweeps: the paper's subranges along one input."""

    def test_refined_boundary_is_exact(self):
        a = Variant("a", lambda n: n * 1.0)
        b = Variant("b", lambda n: 100 + n * 0.1)
        table = one_axis_sweep([a, b], 1, 10000, samples=5)
        # Analytic crossover: n = 100/0.9 = 111.1, so b wins from 112.
        assert subranges(table) == [(1, 111, "a"), (112, 10000, "b")]
        assert table.boundaries() == [("n", 112)]

    def test_subranges_tile_range_for_bisect(self):
        a = Variant("a", lambda n: n * 1.0)
        b = Variant("b", lambda n: 100 + n * 0.1)
        table = one_axis_sweep([a, b], 1, 10000, samples=5)
        runs = subranges(table)
        assert runs[0][0] == 1 and runs[-1][1] == 10000
        for prev, nxt in zip(runs, runs[1:]):
            assert nxt[0] == prev[1] + 1
        assert table.lookup({"n": 111}) == "a"
        assert table.lookup({"n": 112}) == "b"
        assert table.lookup({"n": 10000}) == "b"
        assert table.lookup({"n": 0}) is None
        assert table.lookup({"n": 10001}) is None

    def test_unrefined_sweep_still_tiles(self):
        a = Variant("a", lambda n: n * 1.0)
        b = Variant("b", lambda n: 100 + n * 0.1)
        table = one_axis_sweep([a, b], 1, 10000, samples=5, refine=False)
        runs = subranges(table)
        for prev, nxt in zip(runs, runs[1:]):
            assert nxt[0] == prev[1] + 1
        # Unrefined, the cut sits on the first grid sample b wins.
        assert runs == [(1, 999, "a"), (1000, 10000, "b")]
        for point in geometric_points(1, 10000, 5):
            expected = "a" if point < 112 else "b"
            assert table.lookup({"n": point}) == expected

    def test_single_winner_is_one_subrange(self):
        a = Variant("a", lambda n: 1.0)
        b = Variant("b", lambda n: 2.0)
        table = one_axis_sweep([a, b], 16, 1024, samples=6)
        assert subranges(table) == [(16, 1024, "a")]
        assert table.lookup({"n": 500}) == "a"

    def test_winner_between_two_samples_gets_its_own_slab(self):
        # Grid 1, 10, 100, 1000, 10000: "mid" wins only on [300, 600],
        # strictly between the samples 100 and 1000, so no sample sees
        # it.  The refined cut search must still find both of its
        # break-even points and give it a leaf.
        low = Variant("low", lambda n: 1.0 if n < 300 else 3.0)
        mid = Variant("mid", lambda n: 2.0)
        high = Variant("high", lambda n: 1.0 if n > 600 else 3.0)
        table = one_axis_sweep([low, mid, high], 1, 10000, samples=5)
        assert subranges(table) == [(1, 299, "low"), (300, 600, "mid"),
                                    (601, 10000, "high")]
        assert table.lookup({"n": 450}) == "mid"
