"""Program segments: units of kernel selection.

Adaptic's output is, per actor group, a *set* of kernel variants plus the
operating input ranges each one wins (§3).  A :class:`Segment` is one such
group: it owns the candidate :class:`KernelPlan` list, and the runtime
kernel management picks among them per input.  Segments form a chain; the
output buffer of one is the input of the next.

Segment helpers accept either a bare
:class:`~repro.perfmodel.PerformanceModel` or a
:class:`~repro.compiler.stats.CostCache`; compiled programs pass their
cache so every cost query is memoized and counted.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import SelectionError
from ..perfmodel import PerformanceModel, RegionTable
from .plans.base import KernelPlan, freeze_scalars
from .stats import cost_fn


@dataclasses.dataclass
class RegionDispatch:
    """A baked region table: the segment's selection fast path.

    Valid only for inputs whose ``axes`` scalars all lie inside the
    baked box, whose remaining scalar parameters equal ``extras``
    exactly, and under the host/device-residency eligibility it was
    baked for.  One axis or several, the table is the same type.
    """

    axes: tuple             # axis names, in the region table's order
    extras: tuple           # freeze_scalars() of the non-axis parameters
    from_host: bool         # eligibility context the table was baked under
    region: RegionTable

    def lookup(self, params: Dict[str, float],
               from_host: bool) -> Optional[str]:
        """Winning strategy name, or ``None`` when the table is unusable."""
        if from_host != self.from_host:
            return None
        for name in self.axes:
            value = params.get(name)
            if value is None or not np.isscalar(value):
                return None
        others = {k: v for k, v in params.items() if k not in self.axes}
        if freeze_scalars(others) != self.extras:
            return None
        return self.region.lookup(params)


@dataclasses.dataclass
class Segment:
    """One selectable unit of the compiled program."""

    name: str
    kind: str                          # reduction | map | stencil | ...
    plans: List[KernelPlan]
    input_size: Callable[[Dict], int]
    output_size: Callable[[Dict], int]
    #: Names of auxiliary (const) arrays the plans read from ``params``.
    consts: tuple = ()
    #: Filters folded into this segment (for reporting).
    actors: tuple = ()
    #: Baked dispatch table (selection fast path), if any.
    dispatch: Optional[RegionDispatch] = None
    #: Strategies removed by :meth:`prune` (for actionable errors).
    pruned_strategies: tuple = ()

    def best_plan(self, model: PerformanceModel,
                  params: Dict[str, float],
                  plans: Optional[Sequence[KernelPlan]] = None
                  ) -> KernelPlan:
        """Runtime kernel management: model-argmin over the variants.

        Non-finite predicted costs (``nan``/``inf`` — a variant that
        cannot run at this input) are skipped; if nothing runnable
        remains, the error names every strategy and its predicted cost so
        the failure is diagnosable.
        """
        candidates = self.plans if plans is None else list(plans)
        if not candidates:
            raise SelectionError(f"segment {self.name!r} has no plans",
                                 segment=self.name)
        cost = cost_fn(model)
        best, best_time = None, math.inf
        costs: Dict[str, float] = {}
        for plan in candidates:
            t = cost(plan, params)
            costs[plan.strategy] = t
            if math.isfinite(t) and t < best_time:
                best, best_time = plan, t
        if best is None:
            scalars = dict(freeze_scalars(params))
            raise SelectionError(
                f"segment {self.name!r} has no runnable variant at params "
                f"{scalars}: all predicted costs are non-finite "
                f"({costs})", segment=self.name, params=scalars)
        return best

    def plan_named(self, strategy: str) -> KernelPlan:
        for plan in self.plans:
            if plan.strategy == strategy:
                return plan
        hint = ""
        if strategy in self.pruned_strategies:
            hint = ("; it was removed by prune_variants() — pass "
                    "keep={" f"{self.name!r}: [{strategy!r}]" "} to retain "
                    "force-able variants")
        raise SelectionError(
            f"segment {self.name!r} has no variant {strategy!r}; "
            f"available: {[p.strategy for p in self.plans]}{hint}",
            segment=self.name, plan=strategy)

    def prune(self, model: PerformanceModel,
              points: List[Dict[str, float]],
              tolerance: float = 0.05,
              keep: Sequence[str] = ()) -> List[KernelPlan]:
        """Keep a minimal variant set near-optimal over the declared range.

        Greedy set cover: every sampled point must be served by some kept
        variant within ``tolerance`` of the pointwise optimum.  Near-tied
        variants collapse onto one kernel, which is what keeps the paper's
        binary-size growth moderate (§5.1 reports 1.4× average).

        Strategies named in ``keep`` survive unconditionally (so a later
        ``force=`` cannot dangle); anything dropped is recorded in
        :attr:`pruned_strategies` for actionable errors.
        """
        if len(self.plans) <= 1 or not points:
            return self.plans
        cost = cost_fn(model)
        times = {plan.strategy: [cost(plan, p) for p in points]
                 for plan in self.plans}
        best = [min(times[s][i] for s in times)
                for i in range(len(points))]
        covers = {s: {i for i in range(len(points))
                      if times[s][i] <= best[i] * (1 + tolerance)}
                  for s in times}
        uncovered = set(range(len(points)))
        kept: List[str] = [s for s in times if s in set(keep)]
        for s in kept:
            uncovered -= covers[s]
        while uncovered:
            strategy = max(covers, key=lambda s: len(covers[s] & uncovered))
            gained = covers[strategy] & uncovered
            if not gained:
                break
            kept.append(strategy)
            uncovered -= gained
        if kept:
            dropped = tuple(p.strategy for p in self.plans
                            if p.strategy not in kept)
            self.pruned_strategies = self.pruned_strategies + dropped
            self.plans = [p for p in self.plans if p.strategy in kept]
            if dropped:
                self.dispatch = None   # table may reference dropped plans
        return self.plans


# ---------------------------------------------------------------------------
# Segment-chain fusion: linear producer→consumer span discovery
# ---------------------------------------------------------------------------

def chain_spans(plans: Sequence[KernelPlan], params,
                min_length: int = 2) -> List[tuple]:
    """Maximal fusable spans in one selected plan chain.

    Returns ``[(start, end, stages), ...]`` where ``plans[start:end]`` is a
    maximal run of consecutive plans that provide a chain stage
    (:meth:`KernelPlan.chain_stage`) *and* whose stage boundaries agree on
    the intermediate stream size (producer output elements == consumer
    input elements).  Plans without a stage — reductions, stencils,
    generic actors — terminate the current run, which is why a
    whole-stream reduction can end a fused chain but never sit inside
    one.  Runs shorter than ``min_length`` are dropped (fusing one
    segment is a no-op).
    """
    stages = [plan.chain_stage(params) for plan in plans]
    spans: List[tuple] = []
    start: Optional[int] = None
    for i in range(len(plans) + 1):
        stage = stages[i] if i < len(plans) else None
        linked = stage is not None
        if linked and start is not None:
            prev = stages[i - 1]
            if prev.m * prev.iterations != stage.k * stage.iterations:
                linked = False      # boundary sizes disagree: break the run
        if stage is not None and not linked:
            # Close the current run and open a new one at this stage.
            if start is not None and i - start >= min_length:
                spans.append((start, i, stages[start:i]))
            start = i
            continue
        if stage is None and start is not None:
            if i - start >= min_length:
                spans.append((start, i, stages[start:i]))
            start = None
        elif stage is not None and start is None:
            start = i
    return spans
