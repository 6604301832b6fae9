"""Tests for the command-line harness."""

import pytest

from repro import apps
from repro.cli import main


class TestCli:
    def test_figures_lists_all(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for name in ("fig01", "fig09", "fig10", "fig11", "fig12",
                     "sec53", "code_size"):
            assert name in out

    def test_apps_lists_benchmarks(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "tmv" in out and "montecarlo" in out

    def test_fig01_renders_table(self, capsys):
        assert main(["fig01"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "GFLOPS" in out

    def test_fig01_on_gtx285(self, capsys):
        assert main(["fig01", "--target", "gtx285"]) == 0
        assert "GTX 285" in capsys.readouterr().out

    def test_describe_app(self, capsys):
        assert main(["describe", "sdot"]) == 0
        out = capsys.readouterr().out
        assert "reduce.two_kernel" in out

    def test_describe_with_cuda(self, capsys):
        assert main(["describe", "sdot", "--cuda"]) == 0
        assert "__global__" in capsys.readouterr().out

    @pytest.mark.parametrize("app", sorted(apps.BUILDERS))
    def test_describe_tables_every_app(self, app, capsys):
        # Apps whose cost model reads scalars outside their declared
        # ranges bake with the registry's pins instead of crashing.
        assert main(["describe", app, "--tables"]) == 0
        out = capsys.readouterr().out
        assert "sweep_failures=0" in out
        if app in apps.PINS:
            assert "dispatch table over" in out

    def test_describe_unknown_app_errors(self):
        with pytest.raises(SystemExit):
            main(["describe", "nonexistent"])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_target_errors(self):
        with pytest.raises(KeyError):
            main(["fig01", "--target", "rtx9090"])


class TestReportCommand:
    def test_report_contains_all_sections(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        for section in ("fig01", "fig09", "fig10", "fig11", "fig12",
                        "sec53", "code_size", "model validation"):
            assert f"## {section}" in out
        assert out.count("```") >= 16
