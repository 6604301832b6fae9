"""Sensitivity self-check of the benchmark's compare step.

    python3 -m pytest perfbench/test_selfcheck.py

One set-up of tmv-sweep is measured in short traced passes, in rounds
of three: clean, slowed, clean again.  In a slowed pass the
benchmark-owned device's ``launch`` takes twice as long, so every kernel
does.  ``report.compare`` must flag the slowed passes against the first
clean ones on ``kernel.p50_ms`` and on the end-to-end metrics the kernel
dominates, and must flag nothing when the second clean passes are
compared against the first (``latency_p99_ms`` aside, see below).
Interleaving the rounds puts both sides of each comparison under the
same load from the rest of the host.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import measure  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 5
SECONDS = 0.5
SEED = 7


def twice_as_long(call):
    """``call``, followed by a busy wait as long as the call took."""
    def slowed(*args, **kwargs):
        started = time.perf_counter()
        result = call(*args, **kwargs)
        until = 2 * time.perf_counter() - started
        while time.perf_counter() < until:
            pass
        return result
    return slowed


def test_compare_flags_a_slowed_kernel_and_not_a_clean_rerun():
    bench = workloads.TmvSweep()
    bindings, deck = bench.inputs(SEED)
    trace = workloads.Trace()
    program, setup_seconds = measure.set_up(bench, bindings, trace)
    device = program.device
    host = report.host_info(ROOT)
    rows = {"clean": [], "slowed": [], "rerun": []}
    for _ in range(ROUNDS):
        for side in rows:
            if side == "slowed":
                device.launch = twice_as_long(device.launch)
            try:
                traced = measure.measured_pass(bench, program, deck, SEED,
                                               SECONDS, min_requests=0,
                                               trace=trace)
            finally:
                vars(device).pop("launch", None)
            assert traced.errors == 0
            values = measure.end_to_end(traced, setup_seconds)
            values.update(measure.per_layer(bench, program, trace, traced,
                                            traced, deck))
            rows[side] += report.rows(bench.name, SEED, values, {}, host)
    bounds = report.end_to_end_bounds(os.path.join(ROOT, "BENCHMARK.json"))

    flagged = {row["metric"]
               for row in report.compare(rows["clean"], rows["slowed"],
                                         bounds)}
    assert {"kernel.p50_ms", "throughput_rps",
            "latency_p50_ms"} <= flagged, flagged

    # A pass this short has fewer than ten samples beyond its p99, so
    # that one metric is left out of the clean comparison.
    assert [row for row in report.compare(rows["clean"], rows["rerun"],
                                          bounds)
            if row["metric"] != "latency_p99_ms"] == []
