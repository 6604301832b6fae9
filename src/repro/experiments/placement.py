"""Heterogeneous placement experiment: CPU/GPU splits on the image pipeline.

Placement as a selection axis, measured three ways:

* :func:`sweep` — shape sweep comparing the measured wall-clock of
  cost-modeled automatic placement against the same program pinned
  all-GPU; small shapes route their map segment to the host (the PCIe
  hops plus launch overhead dwarf the arithmetic) and must actually win
  there, large shapes stay on the GPU;
* :func:`dispatch_cost` — amortized per-``select()`` wall-clock of the
  baked placement-aware region tables against per-call placed argmin
  over a bare (uncached) model — the zero-evaluation contract priced;
* :func:`placement_report` — the ``python -m repro placement`` view of
  one sweep: per-shape placements, measured walls, and the dispatch
  counters proving the baked path answered with zero runtime model
  evaluations; :func:`figure` renders the same report as a table.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from .. import api
from ..apps import imagepipe
from ..gpu import GPUSpec, TESLA_C2050
from . import common
from .common import FigureResult, Series
from .multiaxis import grid_points

#: Shape sweep for the measured comparison: small squares where the CPU
#: should win through large ones where the GPU must.
SWEEP_SHAPES = (32, 64, 128, 256, 512)


def _compiled(spec: GPUSpec, samples: Optional[int] = None):
    """Compile the image pipeline with placement as a selection axis."""
    compiled = api.compile(
        imagepipe.build(), arch=spec,
        options=api.AdapticOptions(prune=True, placement=True))
    if samples is not None:
        compiled.bake_decision_tables(samples=samples)
    return compiled


def _best_wall(compiled, data, params, options, repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        compiled.run(data, params, options=options)
        walls.append(time.perf_counter() - started)
    return min(walls)


def sweep(spec: GPUSpec = TESLA_C2050, repeats: int = 5
          ) -> List[Dict[str, object]]:
    """Measured auto-placement vs pinned all-GPU, one row per shape.

    Each row carries the per-segment placements the runtime chose, both
    measured walls (best of ``repeats``), bit-identity of the two
    outputs, and the select-counter delta of the auto path — which must
    show zero runtime model evaluations (every shape is inside the baked
    region tables).
    """
    compiled = _compiled(spec)
    auto = api.RunOptions()
    all_gpu = api.RunOptions(placement="gpu")
    rows = []
    for side in SWEEP_SHAPES:
        data, params = imagepipe.make_input(side, side)
        compiled.warmup(params)
        compiled.warmup(params, options=all_gpu)
        before = compiled.stats.snapshot()
        auto_result = compiled.run(data, params, options=auto)
        delta = compiled.stats.since(before)
        gpu_result = compiled.run(data, params, options=all_gpu)
        auto_wall = _best_wall(compiled, data, params, auto, repeats)
        gpu_wall = _best_wall(compiled, data, params, all_gpu, repeats)
        placements = []
        for segment, sel in zip(compiled.segments, auto_result.selections):
            plan = segment.plan_named(sel.strategy)
            placements.append(f"{segment.name}:{plan.placement}")
        rows.append({
            "shape": f"{side}x{side}",
            "placements": " ".join(placements),
            "cpu_placed": any(p.endswith(":cpu") for p in placements),
            "auto_wall_us": auto_wall * 1e6,
            "gpu_wall_us": gpu_wall * 1e6,
            "auto_speedup": gpu_wall / auto_wall,
            "bit_identical": bool(np.array_equal(auto_result.output,
                                                 gpu_result.output)),
            "runtime_evals": delta.runtime_evals,
            "table_hits": delta.table_hits,
        })
    return rows


def figure(report: Dict[str, object]) -> FigureResult:
    """A :func:`placement_report` as a figure table (no re-sweep)."""
    rows = report["rows"]
    labels = [row["shape"] for row in rows]
    series = [
        Series("auto placement (us)", labels,
               [row["auto_wall_us"] for row in rows]),
        Series("all-GPU (us)", labels,
               [row["gpu_wall_us"] for row in rows]),
        Series("auto speedup", labels,
               [row["auto_speedup"] for row in rows]),
    ]
    return FigureResult(
        figure="placement",
        title=f"heterogeneous placement vs all-GPU on {report['arch']}",
        series=series,
        unit="measured run() wall-clock",
        notes=f"CPU-placed wins at {report['cpu_win_shapes'] or 'none'}; "
              f"runtime model evals on auto path: "
              f"{report['runtime_evals']}; "
              f"outputs bit-identical: {report['bit_identical']}")


def dispatch_cost(spec: GPUSpec = TESLA_C2050, samples: int = 5,
                  repeats: int = 3) -> Dict[str, object]:
    """:func:`~.common.dispatch_cost` with placement compiled in: baked
    placement tables vs placed argmin, which re-prices every candidate's
    boundary transfer and layout terms per call."""
    return common.dispatch_cost(_compiled(spec, samples=samples),
                                grid_points(samples), repeats)


def placement_report(spec: GPUSpec = TESLA_C2050,
                     repeats: int = 5) -> Dict[str, object]:
    """The ``python -m repro placement`` report dict.

    ``ok`` requires at least one shape where a CPU-placed segment's
    measured wall beats the pinned all-GPU chain, zero runtime model
    evaluations on the baked auto path, and bit-identical outputs.
    """
    rows = sweep(spec, repeats=repeats)
    cpu_wins = [row["shape"] for row in rows
                if row["cpu_placed"] and row["auto_speedup"] > 1.0]
    evals = sum(row["runtime_evals"] for row in rows)
    identical = all(row["bit_identical"] for row in rows)
    return {
        "app": "imagepipe",
        "arch": spec.name,
        "rows": rows,
        "cpu_win_shapes": cpu_wins,
        "runtime_evals": evals,
        "bit_identical": identical,
        "ok": bool(cpu_wins) and evals == 0 and identical,
    }
