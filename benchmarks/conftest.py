"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables/figures through the
drivers in :mod:`repro.experiments` and prints the same rows/series the
paper reports.  Run with::

    pytest benchmarks/ --benchmark-only -s

The repository's one machine-readable performance record is perfbench's
result rows (``perfbench/run.py``); these gates assert, they record
nothing.
"""

import pytest


def emit(result) -> None:
    """Print a figure table (visible with ``-s``; captured otherwise)."""
    print()
    print(result.render())


@pytest.fixture
def report():
    return emit
