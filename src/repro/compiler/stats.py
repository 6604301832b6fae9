"""Observability for runtime kernel management (§3).

The paper's runtime unit must be cheap enough to hide under the initial
H2D transfer.  This module makes that claim measurable: a
:class:`CostCache` memoizes ``plan.predicted_seconds`` per
``(plan identity, frozen scalar params)`` and a :class:`SelectionStats`
counts every model evaluation, cache hit, dispatch-table hit/fallback and
the accumulated ``select()`` wall-clock, per compiled program.

Compile-time analyses (pruning, break-even sweeps, table baking) run under
:meth:`CostCache.compile_scope`, so runtime selection cost can be reported
separately from the one-off compile-time model work.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, Optional, Tuple

from .plans.base import KernelPlan, freeze_scalars


@dataclasses.dataclass
class SelectionStats:
    """Counters for one compiled program's kernel-management activity."""

    #: Cost-layer misses: actual analytic-model evaluations performed.
    model_evals: int = 0
    #: ... of which happened inside compile-time analyses (prune/bake/report).
    compile_evals: int = 0
    #: Cost queries answered from the memo table.
    cache_hits: int = 0
    #: ``select()`` decisions answered by a baked dispatch table (zero evals).
    table_hits: int = 0
    #: ``select()`` decisions that fell back to model-argmin.
    table_fallbacks: int = 0
    #: ``select()`` decisions satisfied by a ``force=`` override.
    forced_selections: int = 0
    #: Number of ``select()`` calls.
    select_calls: int = 0
    #: Accumulated wall-clock spent inside ``select()``.
    select_seconds: float = 0.0
    #: Number of completed ``run()`` executions.
    runs: int = 0
    #: Expression compilations performed inside ``run()`` (0 when warm).
    expr_compiles: int = 0
    #: Expression functions rehydrated from bundle-carried source instead
    #: of being rendered (0 unless a bundle was loaded).
    expr_hydrations: int = 0
    #: Restructure permutation arrays built inside ``run()`` (0 when warm).
    restructure_builds: int = 0
    #: Per-stage wall-clock accumulated over ``run()`` executions.  The
    #: kernel stage excludes compile time (reported separately), so the
    #: warm/cold split is directly visible in the aggregates.
    restructure_seconds: float = 0.0
    h2d_seconds: float = 0.0
    kernel_seconds: float = 0.0
    d2h_seconds: float = 0.0
    compile_seconds: float = 0.0
    #: Measured observations folded into the calibration store.
    feedback_observations: int = 0
    #: Runs whose chosen variant's observed time exceeded the calibrated
    #: runner-up prediction by the configured margin.
    mispredicts: int = 0
    #: Probe measurements of a runner-up variant (bounded per
    #: segment + size bucket by :class:`FeedbackConfig.probe_limit`).
    probe_runs: int = 0
    #: Dispatch tables re-swept after a large calibration-factor change
    #: or a probe that contradicted the table.
    table_rebakes: int = 0
    #: Region-table rebakes that re-swept only the affected subtree.
    subtree_resweeps: int = 0
    #: Faults fired by a configured :class:`~repro.faults.FaultInjector`.
    faults_injected: int = 0
    #: Segment executions retried after a variant failure.
    retries: int = 0
    #: (plan, size-bucket) pairs quarantined after a failure.
    quarantines: int = 0
    #: Runs that completed on a non-primary variant after a failure.
    degraded_runs: int = 0
    #: Dispatch-table bakes skipped because the sweep was infeasible.
    sweep_failures: int = 0

    @property
    def runtime_evals(self) -> int:
        """Model evaluations attributable to runtime selection."""
        return self.model_evals - self.compile_evals

    def snapshot(self) -> "SelectionStats":
        return dataclasses.replace(self)

    def reset(self) -> None:
        """Zero every counter (e.g. between ``run_many`` batches)."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, f.default)

    def merge(self, other: "SelectionStats") -> None:
        """Field-wise accumulate ``other`` into this instance.

        The batched runner defers per-run counter updates until its
        threads join (they must not race on shared ints), then merges
        the per-run deltas here.
        """
        for f in dataclasses.fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def since(self, earlier: "SelectionStats") -> "SelectionStats":
        """Counter deltas accumulated after ``earlier`` was snapshotted."""
        return SelectionStats(**{
            f.name: getattr(self, f.name) - getattr(earlier, f.name)
            for f in dataclasses.fields(self)})

    def summary(self) -> str:
        return (f"evals={self.model_evals}"
                f" (compile={self.compile_evals},"
                f" runtime={self.runtime_evals})"
                f" cache_hits={self.cache_hits}"
                f" table_hits={self.table_hits}"
                f" fallbacks={self.table_fallbacks}"
                f" selects={self.select_calls}"
                f" runs={self.runs}"
                f" run_compiles={self.expr_compiles}"
                f" perm_builds={self.restructure_builds}"
                f" feedback={self.feedback_observations}"
                f" probes={self.probe_runs}"
                f" mispredicts={self.mispredicts}"
                f" rebakes={self.table_rebakes}"
                f" sweep_failures={self.sweep_failures}")

    def stage_summary(self) -> str:
        """One-line per-stage wall-clock aggregate over all runs."""
        stages = [("select", self.select_seconds),
                  ("restructure", self.restructure_seconds),
                  ("h2d", self.h2d_seconds),
                  ("kernel", self.kernel_seconds),
                  ("d2h", self.d2h_seconds),
                  ("compile", self.compile_seconds)]
        timings = " ".join(f"{name}={seconds * 1e6:.0f}us"
                           for name, seconds in stages)
        robustness = (f" faults={self.faults_injected}"
                      f" retries={self.retries}"
                      f" quarantines={self.quarantines}"
                      f" degraded={self.degraded_runs}")
        return timings + robustness


class CostCache:
    """Memoized ``plan.predicted_seconds`` shared by selection and analyses.

    Keys are ``(plan identity, frozen scalar params)``; array-valued params
    are excluded from the key because the analytic model only consumes
    scalars (the same projection the compiler's sizing and reducer caches
    use).  Plan objects are pinned for the cache's lifetime so ``id()``
    keys can never be reused by a different plan.
    """

    def __init__(self, model, stats: Optional[SelectionStats] = None):
        self.model = model
        self.stats = stats or SelectionStats()
        self._costs: Dict[Tuple[int, tuple], float] = {}
        self._plans: Dict[int, KernelPlan] = {}
        self._compile_depth = 0

    def __len__(self) -> int:
        return len(self._costs)

    def clear(self) -> None:
        """Drop every memoized cost (stats survive).

        The memo is runtime warm state — model-argmin selections lazily
        populate it — so the serving layer's cold-start path clears it
        along with the plan warm caches.  Later queries simply
        re-evaluate the analytic model.
        """
        self._costs.clear()
        self._plans.clear()

    def entries(self):
        """Yield ``(plan, frozen_scalars, seconds)`` for every memo entry.

        Used by the artifact bundle writer; entries whose plan object is
        no longer pinned (cleared mid-iteration) are skipped.
        """
        for (plan_id, scalars), seconds in self._costs.items():
            plan = self._plans.get(plan_id)
            if plan is not None:
                yield plan, scalars, seconds

    def seed(self, plan: KernelPlan, scalars, seconds: float) -> None:
        """Pre-populate one memo entry (bundle warm-state injection).

        Seeded entries answer later ``plan_seconds`` queries as cache
        hits — zero model evaluations — exactly as if the process had
        already evaluated the model at that binding.
        """
        self._plans.setdefault(id(plan), plan)
        self._costs[(id(plan), tuple(scalars))] = float(seconds)

    @contextlib.contextmanager
    def compile_scope(self):
        """Attribute model evaluations inside the scope to compile time."""
        self._compile_depth += 1
        try:
            yield self
        finally:
            self._compile_depth -= 1

    def plan_seconds(self, plan: KernelPlan, params) -> float:
        """Predicted time of ``plan`` at ``params``, memoized."""
        key = (id(plan), freeze_scalars(params))
        try:
            seconds = self._costs[key]
        except KeyError:
            self._plans.setdefault(id(plan), plan)
            self.stats.model_evals += 1
            if self._compile_depth:
                self.stats.compile_evals += 1
            seconds = plan.predicted_seconds(self.model, params)
            self._costs[key] = seconds
            return seconds
        self.stats.cache_hits += 1
        return seconds


def cost_fn(model_or_cache):
    """Uniform ``(plan, params) -> seconds`` view of a model or a cache.

    Segment-level helpers accept a bare :class:`PerformanceModel`
    (uncounted, uncached — handy in tests) or anything exposing a
    ``plan_seconds(plan, params)`` method: a :class:`CostCache` or the
    runtime's calibrated view of one.
    """
    if hasattr(model_or_cache, "plan_seconds"):
        return model_or_cache.plan_seconds
    return lambda plan, params: plan.predicted_seconds(model_or_cache,
                                                       params)
