"""Metric definitions, the result schema, and the compare step.

Every number the benchmark prints is one row of one schema: workload,
metric, layer, unit, clock (``wall`` for the host's measured seconds,
``modeled`` for the simulated C2050's predicted seconds, ``none`` for
counts, ratios and memory), better direction, value, sample count,
seed, host cores, Python and numpy versions, and git revision.
Per-layer rows also name the end-to-end metric the layer should move.

Imports nothing from the program, so the compare step runs anywhere.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
from typing import Dict, Iterable, List

#: End-to-end metrics (tracing off): name -> (unit, clock, better).
END_TO_END = {
    "setup_s": ("s", "wall", "lower"),
    "throughput_rps": ("1/s", "wall", "higher"),
    "latency_p50_ms": ("ms", "wall", "lower"),
    "latency_p99_ms": ("ms", "wall", "lower"),
    "modeled_us_per_req": ("us", "modeled", "lower"),
    "error_rate": ("ratio", "none", "lower"),
    "peak_rss_mb": ("MB", "none", "lower"),
}

#: Per-layer metrics (traced pass): name -> (layer, unit, clock, better,
#: the end-to-end metric a change in this layer should move).  A layer
#: that a workload never reaches reports 0.
PER_LAYER = {
    "compile.wall_s": ("compiler.adaptic", "s", "wall", "lower", "setup_s"),
    "compile.variants": ("compiler.adaptic", "count", "none", "lower",
                         "setup_s"),
    "perfmodel.bake_s": ("perfmodel", "s", "wall", "lower", "setup_s"),
    "perfmodel.compile_evals": ("perfmodel", "count", "none", "lower",
                                "setup_s"),
    "perfmodel.table_leaves": ("perfmodel", "count", "none", "lower",
                               "setup_s"),
    "perfmodel.runtime_evals": ("perfmodel", "count", "none", "lower",
                                "modeled_us_per_req"),
    "select.p50_us": ("compiler.runtime.select", "us", "wall", "lower",
                      "latency_p50_ms"),
    "select.table_hit_ratio": ("compiler.runtime.select", "ratio", "none",
                               "higher", "latency_p50_ms"),
    "runtime.self_p50_us": ("compiler.runtime", "us", "wall", "lower",
                            "latency_p50_ms"),
    "runtime.self_share": ("compiler.runtime", "ratio", "none", "lower",
                           "throughput_rps"),
    "runtime.executions_per_req": ("compiler.runtime", "count", "none",
                                   "lower", "throughput_rps"),
    "restructure.p50_us": ("compiler.plans", "us", "wall", "lower",
                           "latency_p50_ms"),
    "restructure.share": ("compiler.plans", "ratio", "none", "lower",
                          "latency_p50_ms"),
    "restructure.perm_builds": ("compiler.plans", "count", "none", "lower",
                                "latency_p50_ms"),
    "transfer.h2d_p50_us": ("gpu.device", "us", "wall", "lower",
                            "latency_p99_ms"),
    "transfer.d2h_p50_us": ("gpu.device", "us", "wall", "lower",
                            "latency_p99_ms"),
    "transfer.modeled_us_per_req": ("gpu.device", "us", "modeled", "lower",
                                    "modeled_us_per_req"),
    "kernel.p50_ms": ("gpu.executor", "ms", "wall", "lower",
                      "throughput_rps"),
    "kernel.share": ("gpu.executor", "ratio", "none", "higher",
                     "throughput_rps"),
    "kernel.launches_per_req": ("gpu.executor", "count", "none", "lower",
                                "throughput_rps"),
    "kernel.expr_compiles": ("compiler.exprgen", "count", "none", "lower",
                             "throughput_rps"),
    "kernel.modeled_us_per_req": ("gpu.executor", "us", "modeled", "lower",
                                  "modeled_us_per_req"),
    "placement.cpu_share": ("perfmodel.hostmodel", "ratio", "none",
                            "higher", "latency_p50_ms"),
    "placement.hops_per_req": ("compiler.runtime", "count", "none", "lower",
                               "latency_p50_ms"),
    "placement.regret_pct": ("compiler.runtime", "%", "modeled", "lower",
                             "modeled_us_per_req"),
    "serve.queue_p50_ms": ("serve", "ms", "wall", "lower", "latency_p99_ms"),
    "serve.queue_p99_ms": ("serve", "ms", "wall", "lower", "latency_p99_ms"),
    "serve.batch_p50_ms": ("serve", "ms", "wall", "lower", "throughput_rps"),
    "serve.mean_batch": ("serve", "count", "none", "higher",
                         "throughput_rps"),
    "serve.fused_ratio": ("serve", "ratio", "none", "higher",
                          "throughput_rps"),
    "serve.rejected": ("serve", "count", "none", "lower", "error_rate"),
    "artifacts.load_s": ("artifacts", "s", "wall", "lower", "setup_s"),
    "artifacts.bundle_bytes": ("artifacts", "bytes", "none", "lower",
                               "setup_s"),
    "artifacts.cold_work": ("artifacts", "count", "none", "lower",
                            "setup_s"),
    "trace.overhead_pct": ("benchmark", "%", "wall", "lower",
                           "throughput_rps"),
}

#: Relative band of the compare step for per-layer metrics, which carry
#: no bound of their own: the widest bound BENCHMARK.json gives an
#: end-to-end wall-clock metric, whose runs spread the same way.
LAYER_BAND = 0.25
#: Absolute change below which a per-layer metric is never flagged
#: (integer counters moving by one, shares moving by a few points).
ABS_FLOOR = {"count": 1.0, "ratio": 0.05, "%": 5.0}


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(p / 100.0 * len(ordered))))
    return ordered[rank - 1]


def git_revision(root: str) -> str:
    """Commit of the checkout at ``root``, read from ``.git`` directly;
    ``unknown`` outside a git working tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def host_info(root: str) -> Dict[str, object]:
    import numpy
    return {"host_cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_rev": git_revision(root)}


def rows(workload: str, seed: int, values: Dict[str, float],
         samples: Dict[str, int], host: Dict[str, object]) -> List[Dict]:
    """Schema rows for one run's metrics (end-to-end and per-layer)."""
    out = []
    for name, value in values.items():
        if name in END_TO_END:
            unit, clock, better = END_TO_END[name]
            layer, moves = "end_to_end", None
        else:
            layer, unit, clock, better, moves = PER_LAYER[name]
        row = {"workload": workload, "metric": name, "layer": layer,
               "unit": unit, "clock": clock, "better": better,
               "value": value, "samples": samples.get(name, 1),
               "seed": seed}
        if moves is not None:
            row["moves"] = moves
        row.update(host)
        out.append(row)
    return out


def load_rows(paths: Iterable[str]) -> List[Dict]:
    """Rows from result files, or from every ``*.rows.json`` in
    directories."""
    loaded = []
    for path in paths:
        files = ([os.path.join(path, name) for name in sorted(os.listdir(path))
                  if name.endswith(".rows.json")]
                 if os.path.isdir(path) else [path])
        for name in files:
            with open(name) as handle:
                loaded.extend(json.load(handle))
    return loaded


def medians(loaded: List[Dict]) -> Dict[tuple, Dict]:
    """(workload, metric) -> representative row with the median value."""
    grouped: Dict[tuple, List[Dict]] = {}
    for row in loaded:
        grouped.setdefault((row["workload"], row["metric"]), []).append(row)
    return {key: dict(group[0],
                      value=statistics.median(r["value"] for r in group),
                      runs=len(group))
            for key, group in grouped.items()}


def compare(base: List[Dict], new: List[Dict],
            bounds: Dict[str, float]) -> List[Dict]:
    """Every (workload, metric) whose median got worse beyond its band.

    End-to-end metrics use their BENCHMARK.json bound as a share of the
    base median; per-layer metrics use :data:`LAYER_BAND`, and never
    flag a change smaller than their unit's :data:`ABS_FLOOR`.
    """
    flagged = []
    new_medians = medians(new)
    for key, old in sorted(medians(base).items()):
        row = new_medians.get(key)
        if row is None:
            continue
        sign = 1.0 if old["better"] == "lower" else -1.0
        worse_by = sign * (row["value"] - old["value"])
        band = bounds.get(old["metric"], LAYER_BAND) * abs(old["value"])
        if old["layer"] != "end_to_end":
            band = max(band, ABS_FLOOR.get(old["unit"], 0.0))
        if worse_by > band:
            flagged.append({"workload": key[0], "metric": key[1],
                            "base": old["value"], "new": row["value"],
                            "unit": old["unit"], "band": band})
    return flagged


def end_to_end_bounds(benchmark_json: str) -> Dict[str, float]:
    with open(benchmark_json) as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}


def render(workload: str, values: Dict[str, float]) -> str:
    """Aligned ``metric value unit clock`` lines for one workload."""
    lines = []
    for name in values:
        if name in END_TO_END:
            unit, clock, _better = END_TO_END[name]
        else:
            _layer, unit, clock, _better, _moves = PER_LAYER[name]
        lines.append(f"{workload:17s} {name:28s} {values[name]:14.6g} "
                     f"{unit:6s} {clock}")
    return "\n".join(lines)


def main(argv=None) -> int:
    """``python3 perfbench/report.py BASE NEW``: print every (workload,
    metric) whose median over the result files under NEW is worse than
    over BASE by more than its band; exit 1 when there is one."""
    import argparse
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("base", help="result file or directory (parent)")
    parser.add_argument("new", help="result file or directory (change)")
    args = parser.parse_args(argv)
    bounds = end_to_end_bounds(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    flagged = compare(load_rows([args.base]), load_rows([args.new]), bounds)
    for row in flagged:
        print(f"{row['workload']:17s} {row['metric']:28s} "
              f"{row['base']:12.6g} -> {row['new']:12.6g} {row['unit']:6s} "
              f"(band {row['band']:.6g})")
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
