"""Multi-axis (k-d region table) dispatch gates.

The region-table generalization of the 1-D break-even fast path:
``sweep_region`` edge cases (degenerate single-winner grids, an axis
whose winner never changes collapsing to effectively 1-D cuts), the
feedback repair (``resweep_subtree`` rebuilds only the subtree owning a
point), out-of-box behavior, and the artifact-bundle round trip of a
baked :class:`~repro.perfmodel.RegionTable` — loaded back bit-identically
with zero compile work (``delta.total == 0``).
"""

import dataclasses

import numpy as np
import pytest

from repro import api
from repro.apps import imagepipe
from repro.compiler.exprgen import COMPILE_COUNTER
from repro.compiler.segments import RegionDispatch
from repro.errors import CalibrationError
from repro.perfmodel import AxisSpec
from repro.perfmodel.breakeven import Variant, sweep_region

pytestmark = pytest.mark.multiaxis


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
        # Feedback repairs only inside the baked box; a point outside it
        # needs a whole-table re-bake.
        with pytest.raises(CalibrationError):
            region.resweep_subtree({"n": 0, "m": 5}, variants)


def _three_band_variants(a_below, b_below):
    """'a' wins n < a_below, 'b' up to ``b_below(m)``, 'c' beyond."""
    return [
        Variant("a", lambda v: 1.0 if v[0] < a_below else 9.0),
        Variant("b", lambda v: 2.0 if v[0] < b_below(v[1]) else 9.0),
        Variant("c", lambda v: 3.0),
    ]


class TestRegionResweep:
    """``resweep_subtree``: the one way feedback repairs a baked table.

    The baked table cuts at n=100 ('a' | rest), then at n=500 ('b' |
    'c').  The re-swept costs move every break-even — 'a' now wins only
    below n=50 and the 'b'/'c' cut depends on m — but a point at n=300
    is owned by the n=500 node, so only the n >= 100 subtree changes.
    """

    def _baked_and_moved(self):
        region = sweep_region(_three_band_variants(100, lambda m: 500),
                              _axes())
        moved = _three_band_variants(
            50, lambda m: 700 if m < 300 else 400)
        return region, moved

    def test_leaves_outside_the_owning_subtree_keep_winners_and_cuts(self):
        region, moved = self._baked_and_moved()
        assert region.root.axis == "n" and region.root.cut == 100
        outside = [(box, winner) for box, winner in region.leaves()
                   if box["n"][1] < 100]
        assert outside == [({"n": (1, 99), "m": (1, 1000)}, "a")]
        region.resweep_subtree({"n": 300, "m": 10}, moved)
        assert (region.root.axis, region.root.cut) == ("n", 100)
        assert [(box, winner) for box, winner in region.leaves()
                if box["n"][1] < 100] == outside
        # A fresh sweep would move this cut to n=50; the repair is local.
        assert region.lookup({"n": 75, "m": 500}) == "a"

    def test_rebuilt_subtree_equals_a_sweep_of_its_box(self):
        region, moved = self._baked_and_moved()
        region.resweep_subtree({"n": 300, "m": 10}, moved)
        box = tuple(dataclasses.replace(ax, lo=100) if ax.name == "n"
                    else ax for ax in region.axes)
        assert region.root.high == sweep_region(moved, box).root
        assert region.lookup({"n": 600, "m": 10}) == "b"
        assert region.lookup({"n": 600, "m": 900}) == "c"


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
