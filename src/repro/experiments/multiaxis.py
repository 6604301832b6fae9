"""Multi-axis dispatch experiment: 2-D selection on the image pipeline.

Region tables over two input axes, measured:

* :func:`run` — selection accuracy of the baked
  :class:`~repro.perfmodel.RegionTable` against exact model-argmin over
  the full ``(width, height)`` grid the table was swept on (where the
  k-d contract promises exactness), plus a dense off-grid probe at the
  cell midpoints (where the table is a cell-granularity approximation),
  with the dispatch counters that prove in-range selection costs zero
  model evaluations;
* :func:`dispatch_cost` — amortized per-``select()`` wall-clock, baked
  region lookup vs per-call argmin over a bare (uncached) model;
* :func:`calibration_report` — the region tables are baked under a
  model biased for one kernel family, so the 2-D break-even boundary
  starts in the wrong place; the feedback loop then observes un-biased
  measurements and re-sweeps the subtree owning each contradicted
  binding, and selection accuracy against the un-biased model is
  scored before and after the repair.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .. import api
from ..apps import imagepipe
from ..gpu import GPUSpec, TESLA_C2050
from ..perfmodel import PerformanceModel, geometric_points
from .common import FigureResult, Series

#: Grid geometry bounds shared by every function here (the app's declared
#: ranges, so each point is region-table in-range).
AXIS_LO, AXIS_HI = 32, 4096


def _compiled(spec: GPUSpec, samples: Optional[int] = None):
    """Compile the image pipeline with pruning (bakes region tables).

    ``samples`` re-bakes the tables on a denser per-axis grid than the
    compile default (``AdapticOptions.range_samples``) so experiments
    control the sweep granularity they score against.
    """
    compiled = api.compile(imagepipe.build(), arch=spec,
                           options=api.AdapticOptions(prune=True))
    if samples is not None:
        compiled.bake_decision_tables(samples=samples)
    return compiled


def grid_points(samples: int = 7) -> List[Dict[str, int]]:
    """Cartesian ``(width, height)`` grid, geometric per axis."""
    axis = geometric_points(AXIS_LO, AXIS_HI, samples)
    return [{"width": w, "height": h} for h in axis for w in axis]


def midpoints(samples: int = 7) -> List[Dict[str, int]]:
    """Off-grid probe points: geometric midpoints of every grid cell."""
    axis = geometric_points(AXIS_LO, AXIS_HI, samples)
    mids = [int(round((a * b) ** 0.5)) for a, b in zip(axis, axis[1:])]
    return [{"width": w, "height": h} for h in mids for w in mids]


def run(spec: GPUSpec = TESLA_C2050, samples: int = 7) -> FigureResult:
    """Region-table selection accuracy across the 2-D grid.

    One series per height value; each y is 1.0 when the region lookup
    agrees with exact model-argmin at that ``(width, height)`` point.
    On the swept grid the k-d tree is winner-exact by construction; the
    notes also carry the off-grid midpoint accuracy (the approximation
    inside a grid cell) and the dispatch counters proving every in-range
    point was a region hit with zero runtime model evaluations.
    """
    compiled = _compiled(spec, samples=samples)
    axis = geometric_points(AXIS_LO, AXIS_HI, samples)
    labels = [str(w) for w in axis]
    series = []
    before = compiled.stats.snapshot()
    total = correct = 0
    for h in axis:
        row = []
        for w in axis:
            ok = api.selection_accuracy(
                compiled, [{"width": w, "height": h}]) == 1.0
            row.append(1.0 if ok else 0.0)
            total += 1
            correct += ok
        series.append(Series(f"height={h}", labels, row))
    offgrid = api.selection_accuracy(compiled, midpoints(samples))
    delta = compiled.stats.since(before)
    return FigureResult(
        figure="multiaxis",
        title=f"2-D region dispatch vs exact argmin on {spec.name}",
        series=series,
        unit="selection match (1.0 = agree)",
        notes=f"grid accuracy {correct}/{total} = {correct / total:.3f}; "
              f"off-grid midpoint accuracy {offgrid:.3f}; "
              f"selects={delta.select_calls} "
              f"table_hits={delta.table_hits} "
              f"fallbacks={delta.table_fallbacks}")


def dispatch_cost(spec: GPUSpec = TESLA_C2050, samples: int = 5,
                  repeats: int = 3) -> Dict[str, object]:
    """Amortized select() cost: baked region lookup vs bare-model argmin.

    The baseline is what every dispatch would pay without baked tables:
    ``best_plan`` over an uncached :class:`PerformanceModel`, evaluating
    the analytic model per variant at the actual input (the exact
    fallback path).  Both sides answer the same grid of in-range
    bindings; outputs must agree pointwise on the swept grid.
    """
    baked = _compiled(spec, samples=samples)
    model = PerformanceModel(spec)
    points = grid_points(samples)
    # Check pointwise agreement outside the timed loops (also warms both
    # sides so neither pays one-off compile work in the loop).
    mismatches = 0
    for point in points:
        from_host = True
        chosen = baked.select(dict(point))
        for segment, picked in zip(baked.segments, chosen):
            eligible = baked._eligible(segment, from_host)
            exact = segment.best_plan(model, point, plans=eligible)
            from_host = False
            if exact.strategy != picked.strategy:
                mismatches += 1

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
            from_host = True
            for segment in baked.segments:
                eligible = baked._eligible(segment, from_host)
                segment.best_plan(model, point, plans=eligible)
                from_host = False
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


def calibration_report(spec: GPUSpec = TESLA_C2050, bias: float = 3.0,
                       family: Optional[str] = None,
                       samples: int = 7) -> Dict[str, object]:
    """Feedback-directed repair of a biased 2-D break-even boundary.

    The region tables are (re-)baked while the cost model carries a
    multiplicative ``bias`` for one kernel family (by default the family
    the un-biased model picks mid-grid), so the baked break-even surface
    sits in the wrong place relative to ground truth.  The feedback loop
    then runs with the un-biased model as its observer: mispredicted
    bindings probe the runner-up, and a probe the table contradicts or a
    large factor swing re-sweeps the containing subtree.  Selection
    accuracy is scored against the un-biased model before and after.
    """
    compiled = _compiled(spec, samples=samples)
    truth = compiled.cost.plan_seconds
    points = grid_points(samples)
    if family is None:
        family = compiled.select(dict(points[len(points) // 2]))[0].family
    # Bake the dispatch tables under the biased model: the break-even
    # surface moves, and in-range lookups now disagree with ground truth.
    compiled.calibration.set_model_bias(family, bias)
    compiled.bake_decision_tables(samples=samples)
    before = api.selection_accuracy(compiled, points, reference=truth)
    config = api.FeedbackConfig(
        observer=lambda plan, params: truth(plan, params))
    compiled.recalibrate(points, feedback=config)
    after = api.selection_accuracy(compiled, points, reference=truth)
    stats = compiled.stats
    return {
        "app": "imagepipe", "family": family, "bias": bias,
        "points": len(points),
        "accuracy_before": before, "accuracy_after": after,
        "observations": stats.feedback_observations,
        "probes": stats.probe_runs, "mispredicts": stats.mispredicts,
        "rebakes": stats.table_rebakes,
        "subtree_resweeps": stats.subtree_resweeps,
    }
