"""Feedback-directed selection gates (the PR's acceptance criteria).

The controlled setting throughout: one variant family's model
predictions are inflated 3x (a systematically wrong analytic model),
and the un-biased memoized model plays ground truth through
``FeedbackConfig.observer``.  The gates pin:

* a Figure-10-style shape sweep recovers the correct variant at every
  point with at most ``probe_limit`` (3) probes per size bucket;
* the warm serving path stays compile-free while feedback is on —
  probes measure via the observer, never by building kernels;
* a program that never receives feedback behaves bit-identically to
  the pre-feedback runtime (raw cost object, untouched counters).
"""

import numpy as np
import pytest

from repro import api
from repro.apps import tmv
from repro.perfmodel import (FeedbackConfig, selection_accuracy,
                             size_bucket)
from repro.compiler import RunOptions

pytestmark = pytest.mark.feedback

BIAS = 3.0
TOTAL_ELEMENTS = 1 << 20


def _biased_tmv():
    """TMV with the mid-sweep winner's family inflated 3x."""
    compiled = api.compile(tmv.build())
    truth = compiled.cost.plan_seconds
    points = [{"rows": rows, "cols": cols}
              for rows, cols in tmv.shape_sweep(TOTAL_ELEMENTS)]
    family = compiled.select(dict(points[len(points) // 2]))[0].family
    compiled.calibration.set_model_bias(family, BIAS)
    return compiled, truth, points, family


class TestFig10SweepRecovery:
    def test_biased_family_recovers_within_probe_budget(self):
        compiled, truth, points, family = _biased_tmv()
        before = selection_accuracy(compiled, points, reference=truth)
        assert before < 1.0, "bias must actually flip selections"

        config = FeedbackConfig(
            observer=lambda plan, params: truth(plan, params),
            probe_limit=3)
        store = compiled.recalibrate(points, feedback=config)

        after = selection_accuracy(compiled, points, reference=truth)
        assert after == 1.0
        # The sweep holds total elements fixed: every point is one size
        # bucket, and the budget is per (segment, bucket).
        buckets = {size_bucket(p) for p in points}
        assert len(buckets) == 1
        for segment in compiled.segments:
            for bucket in buckets:
                assert store.probes_used(segment.name, bucket) <= 3

    def test_learned_factor_cancels_the_bias(self):
        compiled, truth, points, family = _biased_tmv()
        config = FeedbackConfig(
            observer=lambda plan, params: truth(plan, params))
        store = compiled.recalibrate(points, feedback=config)
        bucket = size_bucket(points[0])
        assert store.scale(family, bucket) == pytest.approx(1.0, rel=1e-6)


class TestWarmPathStaysCompileFree:
    def test_zero_expression_compiles_during_observer_feedback(self):
        rng = np.random.default_rng(0)
        compiled = api.compile(tmv.build())
        truth = compiled.cost.plan_seconds
        rows, cols = 256, 4096
        matrix, _vec, params = tmv.make_input(rows, cols, rng)

        # Warm every kernel this binding can touch, then bias + feed back.
        compiled.run(matrix, dict(params))
        family = compiled.select(dict(params))[0].family
        compiled.calibration.set_model_bias(family, BIAS)
        config = FeedbackConfig(
            observer=lambda plan, params: truth(plan, params))
        warm = compiled.stats.snapshot()
        compiled.recalibrate([params], feedback=config)
        result = compiled.run(matrix, dict(params), options=RunOptions(feedback=True))
        delta = compiled.stats.since(warm)

        assert delta.feedback_observations >= 1
        assert delta.expr_compiles == 0, \
            "feedback on the warm path must not compile expressions"
        assert np.asarray(result.output).size == rows


class TestUncalibratedBitIdentical:
    def test_runs_and_counters_match_a_feedback_free_program(self):
        rng = np.random.default_rng(1)
        rows, cols = 128, 512
        matrix, _vec, params = tmv.make_input(rows, cols, rng)

        plain = api.compile(tmv.build())
        layered = api.compile(tmv.build())
        assert layered._selection_cost() is layered.cost

        out_plain = np.asarray(plain.run(matrix, dict(params)).output)
        out_layered = np.asarray(layered.run(matrix, dict(params)).output)
        assert out_plain.tobytes() == out_layered.tobytes()

        # Same model evaluations, cache hits, selections — the feedback
        # layer is invisible until the first observation or bias.
        for field in ("model_evals", "cache_hits", "table_hits",
                      "select_calls", "expr_compiles", "runs",
                      "feedback_observations", "probe_runs",
                      "mispredicts", "table_rebakes"):
            assert getattr(plain.stats, field) \
                == getattr(layered.stats, field), field
        assert layered.calibration.is_identity()
