"""Set-ups and passes over one workload, and the metrics they yield.

:func:`end_to_end` folds an untraced pass and the set-up times into the
end-to-end metrics; :func:`per_layer` folds a traced pass (the spans
and stage reports it recorded, the program's counters and, when served,
the ``ServeMetrics``) into the per-layer metrics.  Both return plain
``{metric: value}`` dicts in the units :mod:`report` declares.
"""

from __future__ import annotations

import cProfile
import gc
import io
import math
import os
import pstats
import resource
import statistics
import time
from typing import Dict, List

import report
import workloads

#: Functions a profile pass lists, by their own time.
PROFILE_TOP = 25


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values) if values else 0.0


def set_up(bench, bindings, trace: workloads.Trace):
    """Set the workload up ``bench.setups`` times, each into ``trace``.

    Returns the last program, which the passes measure, and the wall
    seconds of every set-up.
    """
    seconds: List[float] = []
    program = None
    for _ in range(bench.setups):
        started = time.perf_counter()
        program = bench.setup(bindings, trace)
        seconds.append(time.perf_counter() - started)
    return program, seconds


def measured_pass(bench, program, deck, seed, seconds,
                  min_requests=workloads.MIN_REQUESTS, trace=None,
                  keep=frozenset()) -> workloads.Pass:
    """One closed-loop pass over the seed's request sequence, started
    with no garbage left from set-up or an earlier pass to collect."""
    gc.collect()
    return bench.drive(program, deck, seed, seconds, min_requests,
                       trace=trace, keep=keep)


def modeled_mean(measured: workloads.Pass) -> float:
    """Mean modeled seconds of the pass's first requests; ``fsum`` keeps
    it independent of the order a server completed them in."""
    return _mean(measured.modeled)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(measured: workloads.Pass,
               setup_seconds: List[float]) -> Dict[str, float]:
    latencies = measured.latencies
    return {
        "setup_s": _median(setup_seconds),
        "throughput_rps": measured.throughput,
        "latency_p50_ms": report.percentile(latencies, 50) * 1e3,
        "latency_p99_ms": report.percentile(latencies, 99) * 1e3,
        "modeled_us_per_req": modeled_mean(measured) * 1e6,
        "error_rate": measured.errors / max(measured.attempted, 1),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(bench, program, trace: workloads.Trace,
              traced: workloads.Pass, untraced: workloads.Pass,
              deck) -> Dict[str, float]:
    """Per-layer metrics of a traced pass; a layer the workload never
    reaches reports 0."""
    compiled = program.compiled
    records = traced.records
    stats = traced.stats
    served = traced.serve_metrics
    spans = math.fsum(r["span"] for r in records) or 1.0

    def stage(name, rows=records):
        return [r["stages"][name] for r in rows]

    def share(values):
        return math.fsum(values) / spans

    def p50(values):
        return report.percentile(values, 50)

    selves = [r["self"] for r in records]
    queues = [r["queue"] for r in records]
    decisions = stats.select_calls * len(compiled.segments)
    bundle = getattr(bench, "bundle", None)
    return {
        "compile.wall_s": _median(trace.durations("compile", "setup")),
        "compile.variants": compiled.variant_count(),
        "perfmodel.bake_s": _median(trace.durations("bake", "setup")),
        "perfmodel.compile_evals": program.stats.compile_evals,
        "perfmodel.table_leaves": workloads.table_leaves(compiled),
        "perfmodel.runtime_evals": stats.runtime_evals,
        "select.p50_us": p50(stage("select")) * 1e6,
        "select.table_hit_ratio":
            stats.table_hits / decisions if decisions else 0.0,
        "runtime.self_p50_us": p50(selves) * 1e6,
        "runtime.self_share": share(selves),
        "runtime.executions_per_req": stats.runs / max(len(records), 1),
        "restructure.p50_us": p50(stage(
            "restructure", [r for r in records if r["host"]])) * 1e6,
        "restructure.share": share(stage("restructure")),
        "restructure.perm_builds": stats.restructure_builds,
        "transfer.h2d_p50_us": p50(stage("h2d")) * 1e6,
        "transfer.d2h_p50_us": p50(stage("d2h")) * 1e6,
        "transfer.modeled_us_per_req":
            _mean(r["transfer_modeled"] for r in records) * 1e6,
        "kernel.p50_ms": p50(stage("kernel")) * 1e3,
        "kernel.share": share(stage("kernel")),
        "kernel.launches_per_req": _mean(r["launches"] for r in records),
        "kernel.expr_compiles": stats.expr_compiles,
        "kernel.modeled_us_per_req":
            _mean(r["kernel_modeled"] for r in records) * 1e6,
        "placement.cpu_share":
            (sum(r["cpu_segments"] for r in records)
             / max(sum(r["segments"] for r in records), 1)),
        "placement.hops_per_req": _mean(r["hops"] for r in records),
        "placement.regret_pct": workloads.regret_pct(compiled, deck),
        "serve.queue_p50_ms": p50(queues) * 1e3,
        "serve.queue_p99_ms": report.percentile(queues, 99) * 1e3,
        "serve.batch_p50_ms": p50([r["batch"] for r in records]) * 1e3,
        "serve.mean_batch": served.mean_batch_size() if served else 0.0,
        "serve.fused_ratio": (served.fused_dispatches / served.dispatches
                              if served and served.dispatches else 0.0),
        "serve.rejected": traced.rejected,
        "artifacts.load_s": _median(trace.durations("bundle_load", "setup")),
        "artifacts.bundle_bytes": os.path.getsize(bundle) if bundle else 0,
        "artifacts.cold_work": (stats.model_evals + stats.expr_compiles
                                + stats.restructure_builds),
        "trace.overhead_pct": 100.0 * (1.0 - traced.throughput
                                       / untraced.throughput),
    }


def profile(bench, program, deck, seed, seconds, path) -> List[str]:
    """cProfile top-N of a pass of its own; writes it to ``path`` and
    returns its first lines.  Only the calling thread is profiled, so on
    a served workload it covers the event loop and not the dispatch
    thread."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        measured = bench.drive(program, deck, seed, seconds, 0)
    finally:
        profiler.disable()
    text = io.StringIO()
    pstats.Stats(profiler, stream=text).sort_stats("tottime") \
        .print_stats(PROFILE_TOP)
    with open(path, "w") as handle:
        handle.write(f"# {bench.name}: {measured.attempted} requests "
                     f"in {seconds:.1f} s, top {PROFILE_TOP} by own time\n")
        handle.write(text.getvalue())
    lines = [line for line in text.getvalue().splitlines() if line.strip()]
    return lines[:12]
