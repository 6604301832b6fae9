"""Heterogeneous placement experiment: CPU/GPU splits on the image pipeline.

Placement as a selection axis, measured three ways:

* :func:`run` — shape sweep comparing the measured wall-clock of
  cost-modeled automatic placement against the same program pinned
  all-GPU; small shapes route their map segment to the host (the PCIe
  hops plus launch overhead dwarf the arithmetic) and must actually win
  there, large shapes stay on the GPU;
* :func:`dispatch_cost` — amortized per-``select()`` wall-clock of the
  baked placement-aware region tables against per-call placed argmin
  over a bare (uncached) model — the zero-evaluation contract priced;
* :func:`placement_report` — the ``python -m repro placement`` view:
  per-shape placements, measured walls, and the dispatch counters
  proving the baked path answered with zero runtime model evaluations.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from .. import api
from ..apps import imagepipe
from ..gpu import GPUSpec, TESLA_C2050
from ..perfmodel import PerformanceModel, geometric_points
from .common import FigureResult, Series

#: Shape sweep for the measured comparison: small squares where the CPU
#: should win through large ones where the GPU must.
SWEEP_SHAPES = (32, 64, 128, 256, 512)

#: Region-table box used by the dispatch-cost benchmark (kept modest so
#: pruning + baking stay fast in CI).
AXIS_LO, AXIS_HI = 32, 4096


def _compiled(spec: GPUSpec, samples: Optional[int] = None):
    """Compile the image pipeline with placement as a selection axis."""
    compiled = api.compile(
        imagepipe.build(), arch=spec,
        options=api.AdapticOptions(prune=True, placement=True))
    if samples is not None:
        compiled.bake_decision_tables(samples=samples)
    return compiled


def grid_points(samples: int = 5) -> List[Dict[str, int]]:
    """Cartesian ``(width, height)`` grid, geometric per axis."""
    axis = geometric_points(AXIS_LO, AXIS_HI, samples)
    return [{"width": w, "height": h} for h in axis for w in axis]


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


def run(spec: GPUSpec = TESLA_C2050, repeats: int = 5) -> FigureResult:
    """Render the placement shape sweep as a figure table."""
    rows = sweep(spec, repeats=repeats)
    labels = [row["shape"] for row in rows]
    series = [
        Series("auto placement (us)", labels,
               [row["auto_wall_us"] for row in rows]),
        Series("all-GPU (us)", labels,
               [row["gpu_wall_us"] for row in rows]),
        Series("auto speedup", labels,
               [row["auto_speedup"] for row in rows]),
    ]
    cpu_wins = [row["shape"] for row in rows
                if row["cpu_placed"] and row["auto_speedup"] > 1.0]
    evals = sum(row["runtime_evals"] for row in rows)
    identical = all(row["bit_identical"] for row in rows)
    return FigureResult(
        figure="placement",
        title=f"heterogeneous placement vs all-GPU on {spec.name}",
        series=series,
        unit="measured run() wall-clock",
        notes=f"CPU-placed wins at {cpu_wins or 'none'}; "
              f"runtime model evals on auto path: {evals}; "
              f"outputs bit-identical: {identical}")


def dispatch_cost(spec: GPUSpec = TESLA_C2050, samples: int = 5,
                  repeats: int = 3) -> Dict[str, object]:
    """Amortized select() cost: baked placement tables vs placed argmin.

    The baseline is what every dispatch would pay without baked tables:
    :meth:`~repro.compiler.runtime.CompiledProgram.select_argmin` over a
    bare :class:`PerformanceModel`, re-evaluating the analytic model —
    including the boundary transfer/layout terms — per candidate at the
    actual input.  Both sides answer the same grid of in-range bindings;
    winners must agree pointwise on the swept grid.
    """
    baked = _compiled(spec, samples=samples)
    model = PerformanceModel(spec)
    points = grid_points(samples)
    # Agreement check outside the timed loops (also warms both sides).
    mismatches = 0
    for point in points:
        chosen = baked.select(dict(point))
        exact = baked.select_argmin(dict(point), model=model)
        mismatches += sum(a.strategy != b.strategy
                          for a, b in zip(chosen, exact))

    before = baked.stats.snapshot()
    started = time.perf_counter()
    for _ in range(repeats):
        for point in points:
            baked.select(point)
    baked_seconds = time.perf_counter() - started
    delta = baked.stats.since(before)

    started = time.perf_counter()
    for _ in range(repeats):
        for point in points:
            baked.select_argmin(point, model=model)
    argmin_seconds = time.perf_counter() - started
    n = repeats * len(points)
    return {
        "points": len(points), "repeats": repeats,
        "baked_select_us": baked_seconds / n * 1e6,
        "argmin_select_us": argmin_seconds / n * 1e6,
        "speedup": argmin_seconds / baked_seconds,
        "table_hits": delta.table_hits,
        "runtime_evals": delta.runtime_evals,
        "mismatches": mismatches,
    }


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
        "rows": rows,
        "cpu_win_shapes": cpu_wins,
        "runtime_evals": evals,
        "bit_identical": identical,
        "ok": bool(cpu_wins) and evals == 0 and identical,
    }
