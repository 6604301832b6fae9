"""Multi-axis dispatch benchmark: 2-D region-table selection gates.

Three claims ride the ``multiaxis`` marker.  First, in-range 2-D
selection on the image pipeline is answered entirely by the baked
k-d region tables: zero runtime model evaluations, counter-asserted,
and at least 5x cheaper per ``select()`` than per-call argmin over a
bare model.  Second, the baked tables agree with exact model-argmin at
every point of the grid they were swept on.  Third, when the tables are
baked under a model biased for one kernel family, the feedback loop
(probe -> subtree re-sweep -> converged re-sweep) repairs the 2-D
break-even surface to >=0.95 selection accuracy against ground truth.
"""

import pytest

from repro import api
from repro.experiments import multiaxis

pytestmark = pytest.mark.multiaxis


class TestDispatchCost:
    def test_zero_evals_and_5x_over_argmin(self):
        result = multiaxis.dispatch_cost(samples=5, repeats=3)
        assert result["runtime_evals"] == 0
        assert result["mismatches"] == 0
        assert result["table_hits"] > 0
        assert result["speedup"] >= 5.0


class TestGridAccuracy:
    def test_baked_tables_exact_on_swept_grid(self, report):
        figure = multiaxis.run(samples=5)
        report(figure)
        total = sum(len(s.y) for s in figure.series)
        correct = sum(sum(s.y) for s in figure.series)
        assert correct == total


class TestCalibrationRepair:
    def test_biased_boundary_repaired_to_95(self):
        result = multiaxis.calibration_report(samples=5)
        # The biased bake must actually move the boundary (otherwise
        # the repair claim is vacuous), and feedback must repair it.
        assert result["accuracy_before"] < 0.95
        assert result["accuracy_after"] >= 0.95
        assert result["subtree_resweeps"] > 0
        assert result["observations"] > 0
