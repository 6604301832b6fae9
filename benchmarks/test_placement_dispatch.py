"""Heterogeneous placement benchmark: cost-modeled CPU/GPU split gates.

Two claims ride the ``placement`` marker.  First, baked placement-aware
dispatch stays free: in-range selection over the (width, height) grid is
answered by the region tables with zero runtime model evaluations,
agrees pointwise with placed model-argmin, and is at least 5x cheaper
per ``select()`` than re-pricing every candidate (including boundary
transfer and layout terms) per call.  Second, the split is real: on the
shape sweep at least one shape routes a segment to the host and its
measured ``run()`` wall beats the same program pinned all-GPU, with the
mixed outputs bit-identical to the all-GPU chain.
"""

import pytest

from repro.experiments import placement

pytestmark = pytest.mark.placement


class TestDispatchCost:
    def test_baked_placement_dispatch_5x_over_argmin(self):
        result = placement.dispatch_cost(samples=5, repeats=3)
        assert result["runtime_evals"] == 0
        assert result["mismatches"] == 0
        assert result["table_hits"] > 0
        assert result["speedup"] >= 5.0


class TestMeasuredSplit:
    def test_cpu_placed_shape_beats_all_gpu(self, report):
        rep = placement.placement_report(repeats=5)
        report(placement.figure(rep))
        assert rep["bit_identical"]
        assert rep["runtime_evals"] == 0
        assert rep["cpu_win_shapes"], \
            "no shape where a CPU-placed segment beat the all-GPU chain"
        assert rep["ok"]
