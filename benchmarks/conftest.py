"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables/figures through the
drivers in :mod:`repro.experiments` and prints the same rows/series the
paper reports.  Run with::

    pytest benchmarks/ --benchmark-only -s

Benchmarks that record machine-readable numbers (throughput, speedups,
accuracies) do so through the ``bench_record`` fixture, keyed by group;
the pytest session writes each group to ``BENCH_<group>.json`` in the
working directory (``BENCH_multiaxis.json``, ``BENCH_placement.json``),
so CI can archive the series next to the rendered tables.
"""

import json
import os

import pytest

#: Numbers recorded this pytest session: ``{group: {metric_name: {...}}}``.
_RECORDS = {}


def emit(result) -> None:
    """Print a figure table (visible with ``-s``; captured otherwise)."""
    print()
    print(result.render())


@pytest.fixture
def report():
    return emit


@pytest.fixture
def bench_record():
    """Record one metric of a group for ``BENCH_<group>.json``."""
    def record(group: str, name: str, **numbers) -> None:
        _RECORDS.setdefault(group, {})[name] = numbers
    return record


def pytest_sessionfinish(session, exitstatus):
    for group, records in _RECORDS.items():
        path = os.path.join(os.getcwd(), f"BENCH_{group}.json")
        with open(path, "w") as handle:
            json.dump(records, handle, indent=2, sort_keys=True)
            handle.write("\n")
