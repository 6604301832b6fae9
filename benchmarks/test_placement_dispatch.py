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

Measured numbers accumulate through the ``bench_record`` fixture;
the session writes them to ``BENCH_placement.json`` (see
``conftest.py``).
"""

import pytest

from repro.experiments import placement

pytestmark = pytest.mark.placement


class TestDispatchCost:
    def test_baked_placement_dispatch_5x_over_argmin(self,
                                                     bench_record):
        result = placement.dispatch_cost(samples=5, repeats=3)
        bench_record("placement", "dispatch_cost", **{
            k: v for k, v in result.items()})
        assert result["runtime_evals"] == 0
        assert result["mismatches"] == 0
        assert result["table_hits"] > 0
        assert result["speedup"] >= 5.0


class TestMeasuredSplit:
    def test_cpu_placed_shape_beats_all_gpu(self, report, bench_record):
        figure = placement.run(repeats=5)
        report(figure)
        rep = placement.placement_report(repeats=5)
        bench_record("placement", "shape_sweep",
                     cpu_win_shapes=rep["cpu_win_shapes"],
                     runtime_evals=rep["runtime_evals"],
                     bit_identical=rep["bit_identical"],
                     rows=rep["rows"])
        assert rep["bit_identical"]
        assert rep["runtime_evals"] == 0
        assert rep["cpu_win_shapes"], \
            "no shape where a CPU-placed segment beat the all-GPU chain"
        assert rep["ok"]
