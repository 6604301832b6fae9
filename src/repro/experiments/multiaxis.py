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

from typing import Dict, List, Optional

from .. import api
from ..apps import imagepipe
from ..gpu import GPUSpec, TESLA_C2050
from ..perfmodel import geometric_points
from . import common
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
    """:func:`~.common.dispatch_cost` over the swept ``(width, height)``
    grid: baked region lookup vs per-call argmin over a bare model."""
    return common.dispatch_cost(_compiled(spec, samples=samples),
                                grid_points(samples), repeats)


def calibration_report(spec: GPUSpec = TESLA_C2050, bias: float = 3.0,
                       family: Optional[str] = None,
                       samples: int = 7) -> Dict[str, object]:
    """Feedback-directed repair of a biased 2-D break-even boundary.

    A :func:`~.common.calibration_trial` over the grid: the region
    tables are re-baked while the cost model carries the bias for one
    kernel family (by default the family the un-biased model picks
    mid-grid), so the baked break-even surface sits in the wrong place
    relative to ground truth.  Mispredicted bindings then probe the
    runner-up, and a probe the table contradicts or a large factor
    swing re-sweeps the containing subtree.
    """
    compiled = _compiled(spec, samples=samples)
    points = grid_points(samples)
    return {"app": "imagepipe", **common.calibration_trial(
        compiled, points, bias, family, pick=len(points) // 2,
        rebake=lambda: compiled.bake_decision_tables(samples=samples))}
