"""Feedback-directed kernel management: calibration store, probes,
table repair, the ``repro.api`` facade, and the retired legacy spellings.

The calibration experiments' controlled setting is used throughout: a
known multiplicative bias injected for one variant family stands in for
a systematically wrong analytic model, and the un-biased model plays
ground truth through ``FeedbackConfig.observer``.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from repro import api
from repro.compiler.runtime import REBAKE_THRESHOLD
from repro.experiments import fig09, fig10, multiaxis
from repro.gpu import TESLA_C2050, ExecMode
from repro.perfmodel import (CalibrationStore, FeedbackConfig,
                             selection_accuracy, size_bucket)
from repro.perfmodel.breakeven import Variant, sweep_region
from repro.streamit import Filter, StreamProgram

from workloads import SUM_SRC
from repro.compiler import InputLocation, RunOptions

SDOT_SRC = """
def sdot(n):
    acc = 0.0
    for i in range(n):
        acc = acc + pop() * pop()
    push(acc)
"""


def sdot_program():
    return StreamProgram(
        Filter(SDOT_SRC, pop="2*n", push=1),
        params=["n", "r"], input_size="2*n*r",
        input_ranges={"n": (1 << 10, 4 << 20)})


def sum_program():
    return StreamProgram(
        Filter(SUM_SRC, pop="n", push=1),
        params=["n", "r"], input_size="n*r",
        input_ranges={"n": (256, 1 << 20)})


def _path(region, point):
    """``(node, box)`` pairs from a region table's root down to the leaf
    holding ``point``; the leaf's parent owns the subtree a re-sweep
    rebuilds."""
    box = {ax.name: (ax.lo, ax.hi) for ax in region.axes}
    node = region.root
    while True:
        yield node, dict(box)
        if node.is_leaf:
            return
        lo, hi = box[node.axis]
        if point[node.axis] < node.cut:
            box[node.axis], node = (lo, node.cut - 1), node.low
        else:
            box[node.axis], node = (node.cut, hi), node.high


class TestSizeBucket:
    def test_volume_is_product_of_integral_scalars(self):
        assert size_bucket({"n": 1024}) == 10
        assert size_bucket({"rows": 32, "cols": 32}) == 10
        assert size_bucket({"n": 1 << 20, "r": 1}) == 20

    def test_same_volume_shapes_share_a_bucket(self):
        sweep = [{"rows": 1 << k, "cols": 1 << (20 - k)}
                 for k in range(2, 19)]
        assert len({size_bucket(p) for p in sweep}) == 1

    def test_non_scalars_and_degenerate_values_ignored(self):
        assert size_bucket({"n": 64, "vec": None, "flag": True,
                            "gamma": 0.5, "xi": np.ones(3)}) == 6
        assert size_bucket({}) == 0


class TestCalibrationStore:
    def test_identity_until_first_observation(self):
        store = CalibrationStore()
        assert store.is_identity()
        assert store.scale("f", 10) == 1.0
        store.observe("f", 10, observed_seconds=2.0,
                      predicted_seconds=1.0)
        assert not store.is_identity()

    def test_first_observation_seeds_factor_exactly(self):
        store = CalibrationStore()
        store.observe("f", 12, observed_seconds=3.0,
                      predicted_seconds=1.0)
        assert store.ewma("f", 12) == pytest.approx(3.0)

    def test_ewma_converges_to_stationary_ratio(self):
        store = CalibrationStore()
        # Seed far away, then feed a constant ratio of 2.0.
        store.observe("f", 10, observed_seconds=100.0,
                      predicted_seconds=1.0)
        for _ in range(20):
            store.observe("f", 10, observed_seconds=2.0,
                          predicted_seconds=1.0)
        assert store.ewma("f", 10) == pytest.approx(2.0, rel=1e-4)

    def test_factors_are_per_family_and_per_bucket(self):
        store = CalibrationStore()
        store.observe("f", 10, 2.0, 1.0)
        assert store.ewma("f", 11) == 1.0
        assert store.ewma("g", 10) == 1.0

    def test_model_bias_composes_with_ewma(self):
        store = CalibrationStore()
        store.set_model_bias("f", 3.0)
        assert not store.is_identity()
        store.observe("f", 10, observed_seconds=1.0,
                      predicted_seconds=3.0)
        assert store.scale("f", 10) == pytest.approx(1.0)
        store.set_model_bias("f", 1.0)  # unity bias is dropped
        assert store.bias("f") == 1.0

    def test_nonfinite_observations_rejected(self):
        store = CalibrationStore()
        assert store.observe("f", 10, float("nan"), 1.0) == 0.0
        assert store.observe("f", 10, 1.0, 0.0) == 0.0
        assert store.is_identity()

    def test_roundtrip_through_dict_and_json(self, tmp_path):
        store = CalibrationStore()
        store.set_model_bias("g", 3.0)
        store.observe("f", 6, 2.0, 1.0)
        store.note_probe("seg0", 6)
        path = tmp_path / "calibration.json"
        store.save(path)
        json.loads(path.read_text())  # file is real JSON

        restored = CalibrationStore()
        restored.load(path)
        assert restored.ewma("f", 6) == store.ewma("f", 6)
        assert restored.bias("g") == 3.0
        assert restored.probes_used("seg0", 6) == 1

    def test_reset_restores_identity(self):
        store = CalibrationStore()
        store.observe("f", 10, 2.0, 1.0)
        store.set_model_bias("g", 2.0)
        store.note_probe("seg0", 10)
        store.reset()
        assert store.is_identity()
        assert store.probes_used("seg0", 10) == 0


class TestUncalibratedPathUnchanged:
    """No feedback => the calibration layer must be invisible."""

    def test_selection_cost_is_the_raw_memo(self):
        compiled = api.compile(sdot_program())
        assert compiled._selection_cost() is compiled.cost

    def test_plain_runs_leave_the_store_empty(self, rng):
        compiled = api.compile(sdot_program())
        data = rng.standard_normal(2 * 1024)
        compiled.run(data, {"n": 1024, "r": 1})
        assert compiled.calibration.is_identity()
        assert compiled.stats.feedback_observations == 0

    def test_feedback_run_output_bit_identical_to_plain(self, rng):
        params = {"n": 4096, "r": 1}
        data = rng.standard_normal(2 * 4096)
        plain = api.compile(sdot_program()).run(data, dict(params))
        fed = api.compile(sdot_program())
        result = fed.run(data, dict(params), options=RunOptions(feedback=True))
        assert (np.asarray(result.output).tobytes()
                == np.asarray(plain.output).tobytes())
        assert fed.stats.feedback_observations >= 1


class TestFeedbackLoop:
    def _biased(self, program, family_from, bias=3.0, extras=None,
                bake=False):
        compiled = api.compile(program)
        truth = compiled.cost.plan_seconds
        family = compiled.select(dict(family_from))[0].family
        compiled.calibration.set_model_bias(family, bias)
        if bake:
            compiled.bake_decision_tables(samples=7,
                                          extra_params=extras or {},
                                          refine=False)
        return compiled, truth, family

    def test_run_feedback_observes_measured_kernel_seconds(self, rng):
        compiled = api.compile(sdot_program())
        data = rng.standard_normal(2 * 4096)
        compiled.run(data, {"n": 4096, "r": 1}, options=RunOptions(feedback=True))
        assert compiled.stats.feedback_observations >= 1
        assert not compiled.calibration.is_identity()

    def test_recalibrate_with_observer_cancels_bias(self):
        points = [{"n": n, "r": 1} for n in (1 << 10, 1 << 15, 1 << 20)]
        compiled, truth, family = self._biased(sdot_program(), points[-1])
        config = FeedbackConfig(
            observer=lambda plan, params: truth(plan, params))
        store = compiled.recalibrate(points, feedback=config)
        for params in points:
            assert store.scale(family, size_bucket(params)) \
                == pytest.approx(1.0)

    def test_selection_accuracy_recovers_after_recalibration(self):
        points = [{"n": 1 << k, "r": 1} for k in range(10, 21, 2)]
        compiled, truth, _family = self._biased(sdot_program(), points[-1],
                                                extras={"r": 1}, bake=True)
        before = selection_accuracy(compiled, points, reference=truth)
        assert before < 1.0
        config = FeedbackConfig(
            observer=lambda plan, params: truth(plan, params))
        compiled.recalibrate(points, feedback=config)
        after = selection_accuracy(compiled, points, reference=truth)
        assert after == 1.0

    def test_probe_budget_bounded_per_bucket(self):
        points = [{"n": 1 << k, "r": 1} for k in range(10, 21, 2)]
        compiled, truth, _family = self._biased(sdot_program(), points[-1])
        limit = 2
        config = FeedbackConfig(
            observer=lambda plan, params: truth(plan, params),
            probe_limit=limit)
        store = compiled.recalibrate(points, feedback=config)
        for params in points:
            seg = compiled.segments[0]
            assert store.probes_used(seg.name, size_bucket(params)) <= limit

    def test_mispredict_probe_patches_misbaked_tmv_breakeven(self):
        """Probes repair a mis-baked break-even by re-sweeping subtrees."""
        from repro.apps import tmv
        compiled = api.compile(tmv.build())
        truth = compiled.cost.plan_seconds
        cols = 512
        points = [{"rows": 1 << k, "cols": cols} for k in range(3, 13)]
        # Bias the family the un-biased model prefers at the tall end, so
        # the table baked from the biased model mis-assigns subranges.
        family = compiled.select(dict(points[-1]))[0].family
        compiled.calibration.set_model_bias(family, 3.0)
        baked = compiled.bake_decision_tables(samples=7,
                                              extra_params={"cols": cols},
                                              refine=False)
        assert baked >= 1
        before = selection_accuracy(compiled, points, reference=truth)
        assert before < 1.0
        config = FeedbackConfig(
            observer=lambda plan, params: truth(plan, params),
            probe_limit=4)
        compiled.recalibrate(points, feedback=config)
        assert compiled.stats.subtree_resweeps >= 1
        after = selection_accuracy(compiled, points, reference=truth)
        assert after == 1.0

    def test_contradicting_probe_resweeps_owning_subtree(self, rng):
        """A probe verdict alone repairs a baked table, by re-sweeping.

        Measurements put the runner-up's family 20% under the model — a
        factor move below ``REBAKE_THRESHOLD`` — at a binding just past
        the table's first break-even, where the table names the loser.
        Only the post-probe verdict can trigger the repair, and it must
        rebuild the subtree owning the binding exactly as a fresh sweep
        of that box under the calibrated costs would.
        """
        compiled = api.compile(sdot_program())
        compiled.bake_decision_tables(samples=7, extra_params={"r": 1})
        segment = compiled.segments[0]
        region = segment.dispatch.region
        cut = region.root.cut
        params = {"n": cut + 7, "r": 1}
        loser, runner = region.lookup(params), region.lookup({"n": cut - 1})
        family = segment.plan_named(runner).family
        assert family != segment.plan_named(loser).family
        speedup = 0.8
        assert 1.0 - speedup < REBAKE_THRESHOLD
        truth = compiled.cost.plan_seconds
        config = FeedbackConfig(
            observer=lambda plan, p: truth(plan, p) * (
                speedup if plan.family == family else 1.0))
        owner_box = list(_path(region, params))[-2][1]

        compiled.run(rng.standard_normal(2 * params["n"]), dict(params),
                     options=RunOptions(feedback=config))

        assert compiled.stats.probe_runs == 1
        assert compiled.stats.subtree_resweeps == 1
        assert compiled.select(dict(params))[0].strategy == runner
        store = compiled.calibration

        def calibrated(plan, values):
            point = {"n": int(values[0]), "r": 1}
            return truth(plan, point) * store.scale(plan.family,
                                                    size_bucket(point))

        variants = [Variant(p.strategy,
                            lambda v, p=p: calibrated(p, v))
                    for p in compiled._eligible(segment, True)]
        fresh = sweep_region(variants, tuple(
            dataclasses.replace(ax, lo=owner_box[ax.name][0],
                                hi=owner_box[ax.name][1])
            for ax in region.axes))
        repaired = segment.dispatch.region
        owner = next(node for node, box in _path(repaired, params)
                     if box == owner_box)
        assert owner == fresh.root
        # Regions outside the owning subtree keep their winners.
        assert repaired.lookup({"n": cut - 1}) == runner

    def test_large_factor_change_rebakes_table(self):
        points = [{"n": 1 << k, "r": 1} for k in range(10, 21, 2)]
        compiled, truth, _family = self._biased(sdot_program(), points[-1],
                                                extras={"r": 1}, bake=True)
        config = FeedbackConfig(
            observer=lambda plan, params: truth(plan, params))
        compiled.recalibrate(points, feedback=config)
        assert compiled.stats.table_rebakes >= 1

    def test_save_load_calibration_restores_selection(self, tmp_path):
        points = [{"n": 1 << k, "r": 1} for k in range(10, 21, 2)]
        compiled, truth, _family = self._biased(sdot_program(), points[-1],
                                                extras={"r": 1}, bake=True)
        config = FeedbackConfig(
            observer=lambda plan, params: truth(plan, params))
        compiled.recalibrate(points, feedback=config)
        calibrated = [p.strategy for params in points
                      for p in compiled.select(dict(params))]
        path = tmp_path / "cal.json"
        compiled.save_calibration(path)

        fresh = api.compile(sdot_program())
        fresh.calibration.set_model_bias(_family, 3.0)
        fresh.bake_decision_tables(samples=7, extra_params={"r": 1},
                                   refine=False)
        fresh.load_calibration(path)
        restored = [p.strategy for params in points
                    for p in fresh.select(dict(params))]
        assert restored == calibrated
        assert fresh.stats.feedback_observations == 0  # no re-measurement

    def test_clear_warm_caches_resets_calibration(self):
        points = [{"n": 4096, "r": 1}]
        compiled, truth, family = self._biased(sdot_program(), points[0])
        config = FeedbackConfig(
            observer=lambda plan, params: truth(plan, params))
        compiled.recalibrate(points, feedback=config)
        assert not compiled.calibration.is_identity()
        compiled.clear_warm_caches()
        assert compiled.calibration.is_identity()
        assert compiled._selection_cost() is compiled.cost


#: Probe budget per ``repro calibration`` app: the probes each spent
#: while probe verdicts patched tables in place.  Repairing by
#: re-sweeping must not need more.
PROBE_BUDGETS = {"sdot": 21, "isamax": 21, "snrm2": 21, "sasum": 21,
                 "tmv": 3, "imagepipe": 26}


class TestRepairOutcomes:
    """Every ``repro calibration`` app recovers full selection accuracy."""

    @pytest.mark.parametrize("app", sorted(PROBE_BUDGETS))
    def test_calibration_report_recovers(self, app):
        if app == "tmv":
            report = fig10.calibration_report()
        elif app == "imagepipe":
            report = multiaxis.calibration_report()
        else:
            report = fig09.calibration_report(app)
        assert report["accuracy_before"] < 1.0
        assert report["accuracy_after"] == 1.0
        assert report["probes"] <= PROBE_BUDGETS[app]


class TestApiFacade:
    def test_compile_accepts_spec_and_target_name(self):
        by_spec = api.compile(sum_program(), arch=TESLA_C2050)
        by_name = api.compile(sum_program(), arch="c2050")
        assert by_spec.spec.name == by_name.spec.name

    def test_compile_run_roundtrip(self, rng):
        compiled = api.compile(sum_program())
        data = rng.standard_normal(1024)
        result = compiled.run(data, {"n": 1024, "r": 1},
                              options=RunOptions(exec_mode=api.ExecMode.VECTORIZED))
        np.testing.assert_allclose(result.output[0], data.sum(), rtol=1e-6)

    def test_facade_reexports_the_public_types(self):
        for name in ("CompiledProgram", "RunResult", "SelectionStats",
                     "ExecMode", "InputLocation", "CalibrationStore",
                     "FeedbackConfig", "selection_accuracy",
                     "size_bucket", "AdapticOptions", "CompileError",
                     "Device", "GPUSpec", "TESLA_C2050", "get_target"):
            assert hasattr(api, name), name

    def test_options_are_threaded_through(self):
        options = api.AdapticOptions(integration=False)
        compiled = api.compile(sum_program(), options=options)
        assert compiled.options.integration is False


class TestDeprecationShims:
    """The legacy spellings are gone, not deprecated: ``RunOptions`` is the
    only way to say how to run and ``api.compile`` the only compile entry
    point.  Old spellings fail loudly instead of coercing."""

    def test_exec_mode_enum_does_not_warn(self, rng):
        compiled = api.compile(sum_program())
        data = rng.standard_normal(256)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            compiled.run(data, {"n": 256, "r": 1},
                         options=RunOptions(exec_mode=ExecMode.REFERENCE))
        assert not [w for w in record
                    if issubclass(w.category, DeprecationWarning)]

    @pytest.mark.parametrize("field, value, members", [
        ("exec_mode", "vectorized", "ExecMode.VECTORIZED"),
        ("location", False, "InputLocation.DEVICE"),
        ("location", "device", "InputLocation.HOST"),
    ])
    def test_run_options_reject_legacy_values(self, field, value, members):
        with pytest.raises(ValueError, match=members):
            RunOptions(**{field: value})

    def test_run_options_are_frozen(self):
        options = RunOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.location = InputLocation.DEVICE

    @pytest.mark.parametrize("entry, keyword", [
        ("run", "input_on_host"), ("warmup", "exec_mode"),
        ("run_batch", "workers"), ("run_many", "backend"),
        ("run_batch", "warm"), ("run_many", "warm"),
        ("recalibrate", "input_on_host")])
    def test_legacy_run_keywords_are_gone(self, entry, keyword):
        compiled = api.compile(sum_program())
        params = {"n": 256, "r": 1}
        args = {"run": (np.ones(256), params), "warmup": (params,),
                "run_batch": ([np.ones(256)], params),
                "run_many": ([np.ones(256)], params),
                "recalibrate": ([params],)}[entry]
        with pytest.raises(TypeError, match=keyword):
            getattr(compiled, entry)(*args, **{keyword: None})

    def test_one_compile_entry_point_and_one_serve_spelling(self):
        import repro
        assert not hasattr(repro, "compile_program")
        assert api.ServeConfig().options == RunOptions()
        with pytest.raises(TypeError):
            api.ServeConfig(workers=2)

    @pytest.mark.parametrize("make", [
        lambda: RunOptions(workers=2), lambda: RunOptions(backend="thread"),
        lambda: api.ServeConfig(fuse_min_gain=1.0)],
        ids=["workers", "backend", "fuse_min_gain"])
    def test_batch_executor_and_fuse_knobs_are_gone(self, make):
        """``run_batch`` picks serial or threads from the batch, and the
        fuse threshold is the server's ``FUSE_MIN_GAIN``."""
        with pytest.raises(TypeError):
            make()

    def test_invalid_exec_mode_still_raises_without_warning(self, rng):
        compiled = api.compile(sum_program())
        data = rng.standard_normal(256)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(ValueError):
                compiled.run(data, {"n": 256, "r": 1},
                             options=RunOptions(exec_mode="warp-speed"))
        assert not [w for w in record
                    if issubclass(w.category, DeprecationWarning)]

    def test_enum_members_compare_equal_to_strings(self):
        assert ExecMode.VECTORIZED == "vectorized"
        assert str(ExecMode.REFERENCE) == "reference"
        assert api.InputLocation.HOST.on_host
        assert not api.InputLocation.DEVICE.on_host
