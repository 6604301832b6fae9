"""Tests for the experiment drivers (the figures' qualitative claims at
unit-test granularity; the full sweeps live in benchmarks/)."""

import pytest

from repro.experiments import (code_size, common, fig01, fig09, fig10,
                               fig11, fig12, sec53)
from repro.gpu import GTX_285, TESLA_C2050


class TestCommon:
    def test_series_rows(self):
        s = common.Series("x", ["a", "b"], [1.0, 2.0])
        assert s.as_rows() == [("a", 1.0), ("b", 2.0)]

    def test_figure_render_contains_all_series(self):
        result = common.FigureResult(
            "F", "t", [common.Series("one", ["p"], [1.0]),
                       common.Series("two", ["p"], [2.0])], unit="x")
        text = result.render()
        assert "one" in text and "two" in text and "F" in text

    def test_series_by_label(self):
        result = common.FigureResult(
            "F", "t", [common.Series("one", ["p"], [1.0])])
        assert result.series_by_label("one").y == [1.0]
        with pytest.raises(KeyError):
            result.series_by_label("absent")

    def test_size_labels(self):
        assert common.size_label(1024) == "1K"
        assert common.size_label(4 << 20) == "4M"
        assert common.size_label(100) == "100"
        assert common.shape_label(2048, 512) == "2Kx512"

    def test_geometric_sizes(self):
        assert common.geometric_sizes(4, 64, 4) == [4, 16, 64]


class TestFig01:
    def test_regimes(self):
        result = fig01.run(total_elements=1 << 20)
        summary = fig01.regime_summary(result)
        assert summary["peak"] > summary["left_edge"]
        assert summary["peak"] > summary["right_edge"]

    def test_sweep_covers_all_factorizations(self):
        result = fig01.run(total_elements=1 << 16)
        assert len(result.series[0].x) == len(result.series[0].y)
        assert result.series[0].x[0].startswith("4x")


class TestFig09:
    def test_single_benchmark_run(self):
        series = fig09.run_benchmark("sdot")
        assert len(series.y) == 7
        assert all(y > 0.9 for y in series.y)

    def test_summary(self):
        results = fig09.run(benchmarks=["sdot"])
        summary = fig09.summary(results)
        assert summary["sdot"]["max"] >= summary["sdot"]["min"]

    def test_case_generators(self):
        assert len(list(fig09._cases("sdot"))) == 7
        assert len(list(fig09._cases("scalar_product"))) == 7
        assert len(list(fig09._cases("ocean_fft"))) == 7

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            fig09._program("nonesuch")

    def test_rendered_output_is_deterministic(self):
        # The notes carry the selection counters but no wall-clock, so
        # two identical runs print identical bytes.
        first = fig09.run(benchmarks=["sdot"])["sdot"].render()
        second = fig09.run(benchmarks=["sdot"])["sdot"].render()
        assert first.encode() == second.encode()
        assert "table_hits=7" in first


class TestFig10:
    def test_panel_structure(self):
        result = fig10.run_panel(1 << 18)
        cublas = result.series_by_label("CUBLAS").y
        adaptic = result.series_by_label("Adaptic").y
        assert len(cublas) == len(adaptic)
        assert all(a >= 0.95 * c for a, c in zip(adaptic, cublas))

    def test_gtx285_panel(self):
        result = fig10.run_panel(1 << 18, GTX_285)
        assert "GTX 285" in result.title


class TestFig11:
    def test_small_run(self):
        result = fig11.run(sizes=[512], targets={"C2050": TESLA_C2050})
        full = result.series_by_label("Actor Integration").y
        base = result.series_by_label("Baseline").y
        assert full[0] > base[0]

    def test_step_params_include_gemv_extras(self):
        from repro.apps import bicgstab
        gemv = next(s for s in bicgstab.step_specs()
                    if s.name == "gemv_v")
        params = fig11._step_params(gemv, 64)
        assert params["rows"] == 64 and "vec" in params


class TestFig12:
    def test_single_dataset(self):
        result = fig12.run(targets={"C2050": TESLA_C2050},
                           datasets=["usps"])
        values = result.series_by_label("Actor Integration").y
        assert 0.2 < values[0] < 1.0

    def test_average_helper(self):
        result = fig12.run(targets={"C2050": TESLA_C2050},
                           datasets=["web", "usps"])
        avg = fig12.average_normalized(result)
        assert 0 < avg < 1.5


class TestSec53AndCodeSize:
    def test_subset(self):
        cases = {"vectoradd": sec53.CASES["vectoradd"]}
        result = sec53.run(cases=cases)
        ratio = result.series[0].y[0]
        assert 0.9 < ratio < 1.3

    def test_code_size_has_average_row(self):
        result = code_size.run(samples=3)
        assert result.series[0].x[-1] == "average"
        assert result.series[0].y[-1] >= 1.0
