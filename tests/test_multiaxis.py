"""Multi-axis (k-d region table) dispatch gates.

The region-table generalization of the 1-D break-even fast path:
``sweep_region`` edge cases (degenerate single-winner grids, an axis
whose winner never changes collapsing to effectively 1-D cuts), feedback
patches at region corners, out-of-box behavior, and the artifact-bundle
round trip of a baked :class:`~repro.perfmodel.RegionTable` — loaded
back bit-identically with zero compile work (``delta.total == 0``).
"""

import numpy as np
import pytest

from repro import api
from repro.apps import imagepipe
from repro.compiler.exprgen import COMPILE_COUNTER, SOURCE_REGISTRY
from repro.compiler.segments import RegionDispatch
from repro.errors import CalibrationError
from repro.perfmodel import AxisSpec, RegionTable
from repro.perfmodel.breakeven import Variant, sweep_region

pytestmark = pytest.mark.multiaxis


@pytest.fixture(autouse=True)
def _isolated_source_registry():
    """Drop bundle-carried sources after every test.

    The hydration registry is process-global by design; the bundle
    round-trip test below must not leak loaded sources into the rest of
    the suite, where cold-run assertions count real compiles.
    """
    yield
    SOURCE_REGISTRY.clear_loaded()


def _axes(samples=5, lo=1, hi=1000):
    return (AxisSpec(name="n", lo=lo, hi=hi, samples=samples),
            AxisSpec(name="m", lo=lo, hi=hi, samples=samples))


class TestSweepRegionEdgeCases:
    def test_single_winner_grid_is_one_leaf(self):
        variants = [Variant("a", lambda v: 1.0),
                    Variant("b", lambda v: 2.0)]
        region = sweep_region(variants, _axes())
        assert region.n_leaves == 1
        assert region.winners == ["a"]
        for n in (1, 37, 999):
            for m in (1, 500, 1000):
                assert region.lookup({"n": n, "m": m}) == "a"

    def test_constant_winner_axis_collapses_to_1d_cuts(self):
        # Winner depends on n only; the sweep must never split on m.
        variants = [
            Variant("small", lambda v: 1.0 if v[0] < 100 else 3.0),
            Variant("large", lambda v: 2.0),
        ]
        region = sweep_region(variants, _axes())
        cut_axes = {node.axis for node, _depth in _walk(region.root)
                    if node.axis is not None}
        assert cut_axes == {"n"}
        assert region.n_leaves == 2
        # The bisected cut is the exact integer break-even point.
        for m in (1, 500, 1000):
            assert region.lookup({"n": 99, "m": m}) == "small"
            assert region.lookup({"n": 100, "m": m}) == "large"

    def test_out_of_box_lookup_and_patch(self):
        variants = [Variant("a", lambda v: 1.0)]
        region = sweep_region(variants, _axes())
        assert region.lookup({"n": 0, "m": 5}) is None
        assert region.lookup({"n": 5, "m": 1001}) is None
        with pytest.raises(CalibrationError):
            region.patch({"n": 0, "m": 5}, "a")


class TestRegionPatch:
    def _two_region_table(self) -> RegionTable:
        variants = [
            Variant("small", lambda v: 1.0 if v[0] < 100 else 3.0),
            Variant("large", lambda v: 2.0),
        ]
        return sweep_region(variants, _axes())

    def test_patch_at_region_corner_carves_unit_cell(self):
        region = self._two_region_table()
        corner = {"n": 1, "m": 1}       # low corner of the 'small' region
        assert region.lookup(corner) == "small"
        assert region.patch(corner, "large")
        assert region.lookup(corner) == "large"
        # The carve is local: the rest of the region keeps its winner.
        assert region.lookup({"n": 1, "m": 3}) == "small"
        assert region.lookup({"n": 3, "m": 1}) == "small"
        assert region.lookup({"n": 50, "m": 500}) == "small"
        assert region.lookup({"n": 100, "m": 1}) == "large"

    def test_patch_adjacent_to_boundary_moves_it(self):
        region = self._two_region_table()
        probe = {"n": 99, "m": 500}     # hugs the n=100 break-even cut
        assert region.lookup(probe) == "small"
        assert region.patch(probe, "large")
        assert region.lookup(probe) == "large"
        assert region.lookup({"n": 1, "m": 500}) == "small"

    def test_patch_is_noop_when_already_winner(self):
        region = self._two_region_table()
        assert not region.patch({"n": 1, "m": 1}, "small")


@pytest.fixture(scope="module")
def pruned_imagepipe():
    program = imagepipe.build(input_ranges={"width": (32, 512),
                                            "height": (32, 512)})
    return api.compile(program, options=api.AdapticOptions(prune=True))


class TestRegionDispatchRuntime:
    def test_prune_bakes_region_dispatch_on_both_segments(
            self, pruned_imagepipe):
        dispatches = [s.dispatch for s in pruned_imagepipe.segments]
        assert all(isinstance(d, RegionDispatch) for d in dispatches)
        assert all(set(d.axes) == {"width", "height"} for d in dispatches)

    def test_in_range_select_is_region_hit_with_zero_evals(
            self, pruned_imagepipe):
        compiled = pruned_imagepipe
        before = compiled.stats.snapshot()
        plans = compiled.select({"width": 100, "height": 200})
        delta = compiled.stats.since(before)
        assert len(plans) == len(compiled.segments)
        assert delta.table_hits == len(compiled.segments)
        assert delta.runtime_evals == 0
        assert delta.table_fallbacks == 0

    def test_out_of_range_select_falls_back(self, pruned_imagepipe):
        compiled = pruned_imagepipe
        before = compiled.stats.snapshot()
        compiled.select({"width": 4096, "height": 4096})
        delta = compiled.stats.since(before)
        assert delta.table_hits == 0
        assert delta.table_fallbacks == len(compiled.segments)

    def test_run_matches_reference(self, pruned_imagepipe):
        data, params = imagepipe.make_input(96, 64)
        out = np.asarray(pruned_imagepipe.run(data, params).output)
        want = imagepipe.reference(data, 96, 64)
        np.testing.assert_allclose(out, want, rtol=1e-12)


class TestRegionBundleRoundTrip:
    def test_round_trip_bit_identical_zero_compile(self, tmp_path,
                                                   pruned_imagepipe):
        compiled = pruned_imagepipe
        path = tmp_path / "imagepipe.bundle.json"
        compiled.save_bundle(path, meta={"app": "imagepipe"})
        # The fixture narrows input_ranges, so resolve the program
        # explicitly instead of through the default BUILDERS entry.
        warm = api.load_bundle(path, program=compiled.program)
        # Bit-identical region tables on every segment.
        for cold_seg, warm_seg in zip(compiled.segments, warm.segments):
            cold, hot = cold_seg.dispatch, warm_seg.dispatch
            assert isinstance(hot, RegionDispatch)
            assert hot.axes == cold.axes
            assert hot.extras == cold.extras
            assert hot.from_host == cold.from_host
            assert hot.region.to_payload() == cold.region.to_payload()
        # In-range selection on the warm program costs zero model evals
        # and zero expression compiles.
        compile_before = COMPILE_COUNTER.snapshot()
        stats_before = warm.stats.snapshot()
        point = {"width": 100, "height": 200}
        warm_plans = [p.strategy for p in warm.select(dict(point))]
        cold_plans = [p.strategy for p in compiled.select(dict(point))]
        delta = COMPILE_COUNTER.since(compile_before)
        stats = warm.stats.since(stats_before)
        assert warm_plans == cold_plans
        assert delta.total == 0
        assert stats.model_evals == 0
        assert stats.table_hits == len(warm.segments)


def _walk(node, depth=0):
    yield node, depth
    if node.axis is not None:
        yield from _walk(node.low, depth + 1)
        yield from _walk(node.high, depth + 1)
