"""Shared experiment-harness utilities: series containers and reporting."""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional

from .. import api
from ..gpu import GPUSpec, TESLA_C2050
from ..perfmodel import PerformanceModel


@dataclasses.dataclass
class Series:
    """One line/bar group of a figure."""

    label: str
    x: List[str]
    y: List[float]

    def as_rows(self):
        return list(zip(self.x, self.y))


@dataclasses.dataclass
class FigureResult:
    """All series of one reproduced table/figure."""

    figure: str
    title: str
    series: List[Series]
    unit: str = ""
    notes: str = ""

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)

    def render(self) -> str:
        """Align the series into the table the paper's figure plots."""
        lines = [f"== {self.figure}: {self.title} "
                 f"({self.unit}) ==" if self.unit else
                 f"== {self.figure}: {self.title} =="]
        labels = [s.label for s in self.series]
        xs = self.series[0].x
        width = max((len(str(x)) for x in xs), default=8)
        header = " " * (width + 2) + "  ".join(f"{l:>12}" for l in labels)
        lines.append(header)
        for i, x in enumerate(xs):
            row = f"{str(x):>{width}}  "
            row += "  ".join(f"{s.y[i]:12.3f}" for s in self.series)
            lines.append(row)
        if self.notes:
            lines.append(f"-- {self.notes}")
        return "\n".join(lines)


def model_for(spec: GPUSpec = TESLA_C2050) -> PerformanceModel:
    return PerformanceModel(spec)


def calibration_trial(compiled, points: List[Dict], bias: float,
                      family: Optional[str] = None, pick: int = -1,
                      rebake: Optional[Callable[[], object]] = None
                      ) -> Dict[str, object]:
    """One controlled model-error trial over ``points``.

    The model is biased by ``bias`` for one variant family (by default
    the family the un-biased model picks at ``points[pick]``), and
    ``rebake``, when given, re-bakes the dispatch tables under that
    bias.  Selection is scored against the un-biased model, the feedback
    loop runs with the un-biased model as its observer, and selection
    is scored again.  Returns the fields every calibration report
    shares.
    """
    truth = compiled.cost.plan_seconds
    if family is None:
        family = compiled.select(dict(points[pick]))[0].family
    compiled.calibration.set_model_bias(family, bias)
    if rebake is not None:
        rebake()
    before = api.selection_accuracy(compiled, points, reference=truth)
    compiled.recalibrate(points, feedback=api.FeedbackConfig(observer=truth))
    after = api.selection_accuracy(compiled, points, reference=truth)
    stats = compiled.stats
    return {
        "family": family, "bias": bias, "points": len(points),
        "accuracy_before": before, "accuracy_after": after,
        "observations": stats.feedback_observations,
        "probes": stats.probe_runs, "mispredicts": stats.mispredicts,
        "rebakes": stats.table_rebakes,
        "subtree_resweeps": stats.subtree_resweeps,
    }


def dispatch_cost(compiled, points: List[Dict],
                  repeats: int = 3) -> Dict[str, object]:
    """Amortized ``select()`` cost: baked tables vs bare-model argmin.

    The baseline is what every dispatch would pay without baked tables:
    :meth:`~repro.compiler.runtime.CompiledProgram.select_argmin` over a
    bare :class:`PerformanceModel`, re-evaluating the analytic model
    (and, where placement is a selection axis, the boundary transfer and
    layout terms) per candidate at the actual input.  Both sides answer
    ``points``, in-range bindings of ``compiled``'s baked tables;
    winners must agree pointwise.
    """
    model = PerformanceModel(compiled.spec)
    # Agreement check outside the timed loops (also warms both sides).
    mismatches = 0
    for point in points:
        chosen = compiled.select(dict(point))
        exact = compiled.select_argmin(dict(point), model=model)
        mismatches += sum(a.strategy != b.strategy
                          for a, b in zip(chosen, exact))

    before = compiled.stats.snapshot()
    started = time.perf_counter()
    for _ in range(repeats):
        for point in points:
            compiled.select(point)
    baked_seconds = time.perf_counter() - started
    delta = compiled.stats.since(before)

    started = time.perf_counter()
    for _ in range(repeats):
        for point in points:
            compiled.select_argmin(point, model=model)
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


def combined_stats(compiled_programs):
    """Sum the selection counters of several compiled programs."""
    from ..compiler.stats import SelectionStats
    total = SelectionStats()
    for compiled in compiled_programs:
        stats = compiled.stats
        for field in dataclasses.fields(SelectionStats):
            setattr(total, field.name,
                    getattr(total, field.name) + getattr(stats, field.name))
    return total


def geometric_sizes(lo: int, hi: int, factor: int = 4) -> List[int]:
    sizes = []
    n = lo
    while n <= hi:
        sizes.append(n)
        n *= factor
    return sizes


def size_label(n: int) -> str:
    if n >= 1 << 20 and n % (1 << 20) == 0:
        return f"{n >> 20}M"
    if n >= 1024 and n % 1024 == 0:
        return f"{n >> 10}K"
    return str(n)


def shape_label(rows: int, cols: int) -> str:
    return f"{size_label(rows)}x{size_label(cols)}"
