"""Tests for reducer semantics and segment/selection machinery."""

import math

import numpy as np
import pytest

from repro import api
from repro.compiler import AdapticCompiler, AdapticOptions, InputLocation
from repro.compiler.reducers import ArgReducer, ScalarReducer, reducer_for
from repro.gpu import TESLA_C2050
from repro.ir import classify, lift_code
from repro.perfmodel import PerformanceModel
from repro.streamit import Filter, StreamProgram

from workloads import ISAMAX_SRC, SDOT_SRC, SNRM2_SRC, SUM_SRC


def scalar_reducer(src=SUM_SRC, params=None):
    pattern = classify(lift_code(src)).pattern
    return ScalarReducer(pattern, params if params is not None else {})


class TestScalarReducer:
    def test_tree_equals_sequential(self, rng):
        reducer = scalar_reducer(SNRM2_SRC, {"n": 0})
        values = rng.standard_normal(17)
        # Sequential fold.
        state = reducer.identity()
        for i, v in enumerate(values):
            state = reducer.combine(state, reducer.element([v], i))
        # Tree fold (pairwise).
        partials = [reducer.element([v], i) for i, v in enumerate(values)]
        while len(partials) > 1:
            merged = []
            for k in range(0, len(partials) - 1, 2):
                merged.append(reducer.combine(partials[k], partials[k + 1]))
            if len(partials) % 2:
                merged.append(partials[-1])
            partials = merged
        assert reducer.epilogue(state)[0] == pytest.approx(
            reducer.epilogue(partials[0])[0])
        assert reducer.epilogue(state)[0] == pytest.approx(
            np.linalg.norm(values))

    def test_identity_is_neutral(self):
        for src, value in [(SUM_SRC, 5.0)]:
            reducer = scalar_reducer(src, {"n": 0})
            state = reducer.element([value], 0)
            assert reducer.combine(reducer.identity(), state) == state

    def test_init_value_folded_in_epilogue(self):
        reducer = scalar_reducer("""
def f(n):
    acc = 10.0
    for i in range(n):
        acc = acc + pop()
    push(acc)
""", {"n": 0})
        assert reducer.epilogue((5.0,))[0] == 15.0

    def test_symbolic_mode_has_costs_only(self):
        pattern = classify(lift_code(SDOT_SRC)).pattern
        reducer = ScalarReducer(pattern, params=None)
        assert reducer.element_ops() >= 1
        assert reducer.c_state_decl("acc").startswith("float acc")
        with pytest.raises(TypeError):
            reducer.element([1.0, 2.0], 0)

    def test_reducer_for_dispatch(self):
        assert isinstance(reducer_for(classify(lift_code(SUM_SRC)), {}),
                          ScalarReducer)
        assert isinstance(reducer_for(classify(lift_code(ISAMAX_SRC)), {}),
                          ArgReducer)
        with pytest.raises(ValueError):
            reducer_for(classify(lift_code(
                "def m(n):\n    for i in range(n):\n        push(pop())\n")),
                {})


class TestArgReducer:
    def _reducer(self):
        pattern = classify(lift_code(ISAMAX_SRC)).pattern
        return ArgReducer(pattern, {"n": 0})

    def test_matches_sequential_argmax(self, rng):
        reducer = self._reducer()
        values = rng.standard_normal(31)
        state = reducer.identity()
        for i, v in enumerate(values):
            state = reducer.combine(state, reducer.element([v], i))
        assert int(state[1]) == int(np.argmax(np.abs(values)))

    def test_combine_prefers_earlier_on_tie(self):
        reducer = self._reducer()
        early = (5.0, 3.0)
        late = (5.0, 9.0)
        assert reducer.combine(early, late) == early
        assert reducer.combine(late, early) == early

    def test_combine_is_associative_on_samples(self, rng):
        reducer = self._reducer()
        states = [reducer.element([v], i)
                  for i, v in enumerate(rng.standard_normal(9))]
        left = states[0]
        for s in states[1:]:
            left = reducer.combine(left, s)
        mid = reducer.combine(
            reducer.combine(states[0], reducer.combine(states[1],
                                                       states[2])),
            states[3])
        for s in states[4:]:
            mid = reducer.combine(mid, s)
        assert left == mid


class TestSegmentSelection:
    def _compiled(self, **ranges):
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r",
                             input_ranges=ranges or {"n": (1 << 10,
                                                           4 << 20)})
        return api.compile(prog)

    def test_best_plan_is_argmin(self):
        compiled = self._compiled()
        model = PerformanceModel(TESLA_C2050)
        seg = compiled.segments[0]
        params = {"n": 1 << 20, "r": 1}
        best = seg.best_plan(model, params)
        times = {p.strategy: p.predicted_seconds(model, params)
                 for p in seg.plans}
        assert times[best.strategy] == min(times.values())

    def test_plan_named_unknown_raises(self):
        compiled = self._compiled()
        with pytest.raises(KeyError):
            compiled.segments[0].plan_named("no.such.kernel")

    def test_prune_respects_tolerance(self):
        compiled = self._compiled()
        model = PerformanceModel(TESLA_C2050)
        points = compiled.sample_points(samples=6, extra_params={"r": 1})
        seg = compiled.segments[0]
        before = len(seg.plans)
        kept = seg.prune(model, points, tolerance=0.5)
        assert 1 <= len(kept) <= before
        # Every point still served within tolerance by a kept plan.
        for point in points:
            best_all = min(p.predicted_seconds(model, point)
                           for p in compiled.segments[0].plans)
            assert math.isfinite(best_all)

    def test_options_labels(self):
        assert AdapticOptions().label() == "baseline+seg+mem+int"
        assert AdapticOptions.baseline().label() == "baseline"

    def test_selection_changes_with_input_on_host(self):
        compiled = self._compiled()
        params = {"n": 8, "r": 1 << 16}
        host = compiled.select(params,
                               input_on_host=InputLocation.HOST)[0]
        device = compiled.select(params,
                                 input_on_host=InputLocation.DEVICE)[0]
        assert host.strategy.endswith("transposed")
        assert not device.strategy.endswith("transposed")


class TestBestPlanNonFinite:
    def _segment(self):
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r")
        return api.compile(prog).segments[0]

    def test_non_finite_costs_are_skipped(self):
        seg = self._segment()
        params = {"n": 1 << 14, "r": 1}
        model = PerformanceModel(TESLA_C2050)
        expected = seg.best_plan(model, params)
        times = {p.strategy: p.predicted_seconds(model, params)
                 for p in seg.plans}
        # Poison the otherwise-best plan with a nan cost: selection must
        # skip it and take the next-best finite variant.
        best_strategy = expected.strategy
        originals = {}
        for plan in seg.plans:
            if plan.strategy == best_strategy:
                originals[plan.strategy] = plan.predicted_seconds
                plan.predicted_seconds = \
                    lambda m, p: float("nan")  # type: ignore[assignment]
        try:
            chosen = seg.best_plan(model, params)
        finally:
            for plan in seg.plans:
                if plan.strategy in originals:
                    plan.predicted_seconds = originals[plan.strategy]
        assert chosen.strategy != best_strategy
        finite = {s: t for s, t in times.items() if s != best_strategy}
        assert times[chosen.strategy] == min(finite.values())

    def test_all_non_finite_raises_diagnostic(self):
        seg = self._segment()
        params = {"n": 64, "r": 1}
        originals = [(p, p.predicted_seconds) for p in seg.plans]
        for plan in seg.plans:
            plan.predicted_seconds = \
                lambda m, p: float("inf")  # type: ignore[assignment]
        try:
            with pytest.raises(RuntimeError) as err:
                seg.best_plan(PerformanceModel(TESLA_C2050), params)
        finally:
            for plan, fn in originals:
                plan.predicted_seconds = fn
        message = str(err.value)
        assert "non-finite" in message
        assert seg.plans[0].strategy in message   # names the strategies
        assert "'n'" in message or "n" in message  # ... and the params

    def test_empty_segment_raises(self):
        seg = self._segment()
        with pytest.raises(RuntimeError, match="no plans"):
            seg.best_plan(PerformanceModel(TESLA_C2050), {"n": 64, "r": 1},
                          plans=[])


class TestPruneKeep:
    def _compiled(self):
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r",
                             input_ranges={"n": (1 << 10, 4 << 20)})
        return api.compile(prog)

    def _loser_strategy(self, compiled):
        """A strategy aggressive pruning would drop."""
        probe = self._compiled()
        probe.prune_variants(tolerance=0.0, extra_params={"r": 1})
        seg = probe.segments[0]
        assert seg.pruned_strategies, "pruning dropped nothing"
        return seg.pruned_strategies[0]

    def test_keep_retains_forceable_variant(self):
        loser = self._loser_strategy(self._compiled())
        compiled = self._compiled()
        seg = compiled.segments[0]
        compiled.prune_variants(tolerance=0.0, extra_params={"r": 1},
                                keep={seg.name: [loser]})
        assert loser in [p.strategy for p in seg.plans]
        # force= must now resolve instead of dangling.
        plans = compiled.select({"n": 1 << 14, "r": 1},
                                force={seg.name: loser})
        assert plans[0].strategy == loser

    def test_pruned_force_raises_actionable_error(self):
        compiled = self._compiled()
        loser = self._loser_strategy(compiled)
        compiled.prune_variants(tolerance=0.0, extra_params={"r": 1})
        seg = compiled.segments[0]
        assert loser not in [p.strategy for p in seg.plans]
        with pytest.raises(KeyError) as err:
            compiled.select({"n": 1 << 14, "r": 1}, force={seg.name: loser})
        message = str(err.value)
        assert "prune_variants" in message and "keep=" in message
