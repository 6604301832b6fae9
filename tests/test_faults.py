"""Fault-tolerant serving: taxonomy, deterministic injection, quarantine.

Covers the robustness layer end to end: the structured exception
taxonomy (and its compatibility with the builtin classes historical
call sites raised), the seeded :class:`FaultInjector`, the
retry-then-degrade policy (quarantine + re-selection + graceful batch
completion), per-item error capture in ``run_many``, and resource
hygiene across failed runs.

The ``faults``-marked classes are the CI gate: with a seeded injector
killing one plan family, a fig10-style TMV sweep must complete every
item with outputs bit-identical to an uninjected run and robustness
counters matching the injection plan exactly; with the injector
disabled, outputs and counters must be bit-identical to a program that
never had one.
"""

import dataclasses

import numpy as np
import pytest

from repro import api
from repro.apps import tmv
from repro.compiler import AdapticOptions, CompileError, runtime
from repro.compiler.runtime import CompiledProgram
from repro.errors import (CalibrationError, KernelExecutionError,
                          KernelTimeoutError, ModelSweepError, ReproError,
                          SelectionError, TransferError)
from repro.faults import (ANY_FAMILY, FaultInjector, FaultPlan, KIND_NAN,
                          KIND_RAISE, KIND_TIMEOUT)
from repro.gpu import Device, DeviceArray, MODE_REFERENCE, \
    MODE_VECTORIZED, TESLA_C2050
from repro.perfmodel import CalibrationStore
from repro.compiler import RunOptions

SWEEP_ELEMENTS = 1 << 10


def _compile(faults=None, **option_kwargs):
    DeviceArray.reset_base_allocator()
    options = AdapticOptions(faults=faults, **option_kwargs)
    return api.compile(tmv.build(), options=options)


def _sweep_batch(total=SWEEP_ELEMENTS):
    """Fig10-style TMV shape sweep at a fixed element total."""
    inputs, params_list = [], []
    for rows, cols in tmv.shape_sweep(total):
        matrix, _vec, params = tmv.make_input(rows, cols)
        inputs.append(matrix)
        params_list.append(params)
    return inputs, params_list


def _int_counters(stats):
    """Integer counter fields only (wall-clock floats legitimately vary)."""
    return {f.name: getattr(stats, f.name)
            for f in dataclasses.fields(stats)
            if isinstance(getattr(stats, f.name), int)}


class _FakePlan:
    def __init__(self, family, strategy=None):
        self.family = family
        self.strategy = strategy or family


class TestTaxonomy:
    """The structured exceptions and their legacy-class compatibility."""

    def test_context_fields_carried_and_rendered(self):
        exc = KernelExecutionError("kernel died", segment="seg0",
                                   plan="reduce.two_kernel",
                                   params={"n": 64}, kind="crash",
                                   segment_index=0)
        assert exc.segment == "seg0"
        assert exc.plan == "reduce.two_kernel"
        assert exc.params == {"n": 64}
        assert not exc.injected
        message = str(exc)
        assert "kernel died" in message
        assert "seg0" in message and "reduce.two_kernel" in message

    def test_selection_error_is_keyerror_and_runtimeerror(self):
        exc = SelectionError("no variant", segment="seg0")
        assert isinstance(exc, KeyError)
        assert isinstance(exc, RuntimeError)
        assert isinstance(exc, ReproError)
        # KeyError.__str__ would repr-quote; the taxonomy keeps prose.
        assert str(exc).startswith("no variant")

    def test_builtin_compatibility_of_value_errors(self):
        assert issubclass(ModelSweepError, ValueError)
        assert issubclass(CompileError, ValueError)
        assert issubclass(CompileError, ReproError)
        assert issubclass(KernelTimeoutError, KernelExecutionError)
        assert issubclass(TransferError, RuntimeError)
        assert issubclass(CalibrationError, RuntimeError)

    def test_strategy_of_unknown_segment_is_actionable(self, rng):
        compiled = _compile()
        matrix, _vec, params = tmv.make_input(8, 32, rng)
        result = compiled.run(matrix, params)
        with pytest.raises(KeyError):           # legacy handlers
            result.strategy_of("nonexistent")
        with pytest.raises(SelectionError) as err:
            result.strategy_of("nonexistent")
        message = str(err.value)
        assert "nonexistent" in message
        assert compiled.segments[0].name in message  # lists known segments

    def test_plan_named_unknown_strategy_is_selection_error(self):
        compiled = _compile()
        with pytest.raises(SelectionError) as err:
            compiled.segments[0].plan_named("no.such.variant")
        assert "available" in str(err.value)


class TestFaultInjector:
    """Seeded determinism of the injection source."""

    def test_nth_count_window(self):
        injector = FaultInjector(
            [FaultPlan(family="f", nth=2, count=2)])
        plan = _FakePlan("f")
        fired = [injector.on_execute(plan) is not None for _ in range(5)]
        assert fired == [False, True, True, False, False]
        assert injector.faults_injected == 2

    def test_count_none_fires_forever(self):
        injector = FaultInjector([FaultPlan(family="f", count=None)])
        plan = _FakePlan("f")
        assert all(injector.on_execute(plan) is not None
                   for _ in range(4))

    def test_matching_by_family_strategy_and_wildcard(self):
        injector = FaultInjector([FaultPlan(family="a.b", count=None)])
        assert injector.on_execute(_FakePlan("a.b", "a.b@128")) is not None
        assert injector.on_execute(_FakePlan("other")) is None
        wild = FaultInjector([FaultPlan(family=ANY_FAMILY, count=None)])
        assert wild.on_execute(_FakePlan("anything")) is not None

    def test_kernel_rules_are_launch_scope_only(self):
        injector = FaultInjector(
            [FaultPlan(family="f", kernel="reduce", count=None)])
        assert injector.on_execute(_FakePlan("f")) is None
        assert injector.on_launch("seg0_reduce_pass1") is not None
        assert injector.on_launch("unrelated") is None

    def test_probability_is_seeded_and_reset_rewinds(self):
        plans = [FaultPlan(family="f", probability=0.5, count=None)]
        a, b = FaultInjector(plans, seed=7), FaultInjector(plans, seed=7)
        plan = _FakePlan("f")
        draws_a = [a.on_execute(plan) is not None for _ in range(32)]
        draws_b = [b.on_execute(plan) is not None for _ in range(32)]
        assert draws_a == draws_b
        a.reset()
        assert [a.on_execute(plan) is not None
                for _ in range(32)] == draws_a

    def test_disabled_injector_is_inert(self):
        injector = FaultInjector([FaultPlan(family=ANY_FAMILY, count=None)])
        injector.enabled = False
        assert injector.on_execute(_FakePlan("f")) is None
        assert injector.on_launch("k") is None
        assert injector.faults_injected == 0

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(family="f", kind="explode")
        with pytest.raises(ValueError):
            FaultPlan(family="f", nth=0)


@pytest.mark.faults
class TestInjectedFaultRecovery:
    """run() degrades gracefully under each fault kind."""

    def _clean_and_victim(self, rng):
        clean = _compile()
        matrix, _vec, params = tmv.make_input(8, SWEEP_ELEMENTS // 8, rng)
        baseline = clean.run(matrix, params)
        return matrix, params, baseline

    @pytest.mark.parametrize("kind", [KIND_RAISE, KIND_NAN, KIND_TIMEOUT])
    def test_fault_kind_degrades_to_identical_output(self, rng, kind):
        matrix, params, baseline = self._clean_and_victim(rng)
        victim = baseline.selections[0].strategy
        injector = FaultInjector(
            [FaultPlan(family=victim, kind=kind, nth=1, count=1)])
        guarded = _compile(faults=injector)
        result = guarded.run(matrix, params)
        np.testing.assert_array_equal(result.output, baseline.output)
        assert result.selections[0].strategy != victim
        stats = guarded.stats
        assert stats.faults_injected == 1
        assert stats.retries == 1
        assert stats.quarantines == 1
        assert stats.degraded_runs == 1
        assert guarded.calibration.is_quarantined(
            victim, __import__("repro.perfmodel",
                               fromlist=["size_bucket"]).size_bucket(params))

    def test_launch_scope_fault_recovers_too(self, rng):
        matrix, params, baseline = self._clean_and_victim(rng)
        injector = FaultInjector(
            [FaultPlan(family=ANY_FAMILY, kernel="", kind=KIND_TIMEOUT,
                       nth=1, count=1)])
        guarded = _compile(faults=injector)
        result = guarded.run(matrix, params)
        np.testing.assert_array_equal(result.output, baseline.output)
        assert guarded.stats.degraded_runs == 1
        assert guarded.stats.faults_injected == 1

    def test_quarantine_steers_subsequent_selection(self, rng):
        matrix, params, baseline = self._clean_and_victim(rng)
        victim = baseline.selections[0].strategy
        injector = FaultInjector(
            [FaultPlan(family=victim, kind=KIND_RAISE, nth=1, count=1)])
        guarded = _compile(faults=injector)
        first = guarded.run(matrix, params)
        again = guarded.run(matrix, params)
        assert again.selections[0].strategy == first.selections[0].strategy
        assert again.selections[0].strategy != victim
        # No second fault, no second retry: selection avoided the
        # quarantined variant outright.
        assert guarded.stats.retries == 1
        assert guarded.stats.degraded_runs == 1

    def test_last_variant_is_never_quarantined(self, rng):
        # A baseline compile leaves the reduction one plan; an
        # all-matching persistent fault is then terminal, not degradable.
        matrix, _vec, params = tmv.make_input(8, 32, rng)
        injector = FaultInjector(
            [FaultPlan(family=ANY_FAMILY, kind=KIND_RAISE, count=None)])
        guarded = _compile(faults=injector, segmentation=False,
                           memory=False, integration=False)
        assert len(guarded.segments[0].plans) == 1
        with pytest.raises(KernelExecutionError) as err:
            guarded.run(matrix, params)
        assert err.value.injected
        assert err.value.segment_index == 0
        assert not guarded.calibration.has_quarantines()
        assert guarded.stats.faults_injected == 1
        assert guarded.stats.retries == 0
        assert guarded.stats.degraded_runs == 0


@pytest.mark.faults
class TestFaultGate:
    """The acceptance gate: degraded sweep is bit-identical + counted."""

    def test_sweep_completes_bit_identical_with_exact_counters(
            self, monkeypatch):
        inputs, params_list = _sweep_batch()
        clean = _compile()
        clean_results = clean.run_many(inputs, params_list)
        victim = clean_results[0].selections[0].strategy

        # The sweep's small items run serially by the rule; check that
        # executor and a fan-out over two threads, forced.
        for threads in (2, 1):
            monkeypatch.setattr(runtime, "batch_threads",
                                lambda *args: threads)
            injector = FaultInjector(
                [FaultPlan(family=victim, kind=KIND_RAISE, nth=1,
                           count=1)],
                seed=0)
            guarded = _compile(faults=injector)
            injected = guarded.run_many(inputs, params_list)

            assert len(injected) == len(inputs)
            for a, b in zip(clean_results, injected):
                np.testing.assert_array_equal(a.output, b.output)
            stats = guarded.stats
            assert stats.faults_injected == 1
            assert stats.retries == 1
            assert stats.quarantines == 1
            assert stats.degraded_runs == 1
            assert injector.faults_injected == 1
            (entry,) = guarded.calibration.quarantined()
            assert entry[0] == victim

    def test_disabled_injector_is_bit_identical_to_none(self):
        inputs, params_list = _sweep_batch()
        plain = _compile()
        plain_results = plain.run_many(inputs, params_list)

        injector = FaultInjector(
            [FaultPlan(family=ANY_FAMILY, kind=KIND_RAISE, count=None)],
            seed=3)
        injector.enabled = False
        disabled = _compile(faults=injector)
        disabled_results = disabled.run_many(inputs, params_list)

        for a, b in zip(plain_results, disabled_results):
            np.testing.assert_array_equal(a.output, b.output)
        assert _int_counters(plain.stats) == _int_counters(disabled.stats)
        assert injector.faults_injected == 0

    def test_counters_surface_in_stage_summary_and_health_cli(self, capsys):
        stats_line = _compile().stats.stage_summary()
        for token in ("faults=", "retries=", "quarantines=", "degraded="):
            assert token in stats_line
        from repro.cli import main
        assert main(["health"]) == 0
        out = capsys.readouterr().out
        assert "verdict           OK" in out


@pytest.mark.faults
class TestRunManyPartialFailure:
    """Satellite: one bad item no longer aborts (or discards) the batch."""

    def _batch(self, rng, n=3):
        matrix, _vec, params = tmv.make_input(8, 32, rng)
        return [matrix.copy() for _ in range(n)], params

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_item_surfaces_per_index_with_partials(self, rng,
                                                          threads,
                                                          monkeypatch):
        # The rule runs these small items serially; force the fan-out.
        monkeypatch.setattr(runtime, "batch_threads",
                            lambda *args: threads)
        inputs, params = self._batch(rng)
        inputs[1] = np.ones(5)          # wrong size for this binding
        compiled = _compile()
        before = compiled.stats.snapshot()
        with pytest.raises(KernelExecutionError) as err:
            compiled.run_many(inputs, params)
        exc = err.value
        assert exc.batch_index == 1
        assert set(exc.batch_errors) == {1}
        assert isinstance(exc.__cause__, ValueError)
        # Completed items' results and counters survive the failure.
        assert exc.partial_results[0] is not None
        assert exc.partial_results[2] is not None
        assert exc.partial_results[1] is None
        delta = compiled.stats.since(before)
        # The two completed items, plus the warmup when the batch fans
        # out over threads (a serial batch runs no warmup).
        assert delta.runs == (3 if threads > 1 else 2)

    def test_successful_batch_unchanged(self, rng):
        inputs, params = self._batch(rng)
        compiled = _compile()
        results = compiled.run_many(inputs, params)
        assert all(r is not None for r in results)


class TestWorkerExecMode:
    """Satellite: batch workers inherit the program's exec mode."""

    def _recorded_modes(self, monkeypatch, default_mode, exec_mode):
        created = []

        class RecordingDevice(Device):
            def __init__(self, spec, exec_mode=MODE_REFERENCE,
                         fault_injector=None):
                created.append(exec_mode)
                super().__init__(spec, exec_mode=exec_mode,
                                 fault_injector=fault_injector)

        monkeypatch.setattr(runtime, "Device", RecordingDevice)
        # Items this small run serially; force a two-thread fan-out.
        monkeypatch.setattr(runtime, "batch_threads", lambda *args: 2)
        compiled = _compile()
        if default_mode is not None:
            compiled.default_exec_mode = default_mode
        matrix, _vec, params = tmv.make_input(8, 32)
        compiled.run_many([matrix] * 4, params,
                          options=RunOptions(exec_mode=exec_mode))
        assert created, "expected worker devices to be constructed"
        return created

    def test_workers_inherit_program_default_mode(self, monkeypatch):
        implicit = self._recorded_modes(monkeypatch,
                                        default_mode=MODE_VECTORIZED,
                                        exec_mode=None)
        explicit = self._recorded_modes(monkeypatch, default_mode=None,
                                        exec_mode=MODE_VECTORIZED)
        # Identical mode both ways: via the program default and via the
        # explicit argument (this used to silently fall back to the
        # reference interpreter for worker devices).
        assert set(implicit) == {MODE_VECTORIZED}
        assert set(implicit) == set(explicit)


@pytest.mark.faults
class TestResourceHygiene:
    """Exception paths leak no buffers and leave warm state consistent."""

    def test_failed_run_releases_buffers_and_recovers_bitwise(self, rng):
        matrix, _vec, params = tmv.make_input(8, 32, rng)
        injector = FaultInjector(
            [FaultPlan(family=ANY_FAMILY, kind=KIND_RAISE, nth=2,
                       count=1)])
        compiled = _compile(faults=injector, segmentation=False,
                            memory=False, integration=False)
        device = Device(TESLA_C2050, fault_injector=injector)

        clean = compiled.run(matrix, params, device=device)
        pooled = len(device.arena)
        misses = device.arena.misses

        with pytest.raises(KernelExecutionError):
            compiled.run(matrix, params, device=device)
        # The run scope released every allocation back into the arena.
        assert len(device.arena) == pooled
        assert device.arena.misses == misses

        again = compiled.run(matrix, params, device=device)
        np.testing.assert_array_equal(again.output, clean.output)
        assert device.arena.misses == misses   # pure warm path after fail

    def test_nan_poison_does_not_contaminate_retry(self, rng):
        matrix, _vec, params = tmv.make_input(8, SWEEP_ELEMENTS // 8, rng)
        baseline = _compile().run(matrix, params)
        victim = baseline.selections[0].strategy
        injector = FaultInjector(
            [FaultPlan(family=victim, kind=KIND_NAN, nth=1, count=1)])
        guarded = _compile(faults=injector)
        result = guarded.run(matrix, params)
        assert np.isfinite(result.output).all()
        np.testing.assert_array_equal(result.output, baseline.output)


class TestQuarantineStore:
    """Calibration-store quarantine state and its serialization."""

    def test_quarantine_lifecycle(self):
        store = CalibrationStore()
        assert not store.has_quarantines()
        assert store.quarantine("reduce.two_kernel", 10, reason="raise")
        assert not store.quarantine("reduce.two_kernel", 10)   # idempotent
        assert store.has_quarantines()
        assert store.is_quarantined("reduce.two_kernel", 10)
        assert not store.is_quarantined("reduce.two_kernel", 11)
        assert not store.is_quarantined("other", 10)
        assert store.quarantined() == [("reduce.two_kernel", 10, "raise")]
        assert "quarantined:reduce.two_kernel@2^10" in store.summary()
        store.reset()
        assert not store.has_quarantines()

    def test_quarantines_roundtrip_serialization(self, tmp_path):
        store = CalibrationStore()
        store.quarantine("cpu.interpreter", 12, reason="timeout")
        path = tmp_path / "calibration.json"
        store.save(path)
        restored = CalibrationStore()
        restored.load(path)
        assert restored.is_quarantined("cpu.interpreter", 12)
        assert restored.quarantined() == [("cpu.interpreter", 12,
                                           "timeout")]

    def test_load_errors_are_calibration_errors(self, tmp_path):
        store = CalibrationStore()
        with pytest.raises(CalibrationError):
            store.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(CalibrationError):
            store.load(bad)
        with pytest.raises(CalibrationError):
            CalibrationStore.from_dict({"factors": "nonsense"})


class TestSweepFailureAccounting:
    """Satellite: bakers catch only ModelSweepError and count it."""

    def test_sizing_compile_error_translates_and_counts(self, monkeypatch):
        compiled = _compile()
        segment = compiled.segments[0]

        def unsizable(model, params):
            raise CompileError("size violates steady-state schedule")

        for plan in segment.plans:
            monkeypatch.setattr(plan, "predicted_seconds", unsizable)
        baked = compiled.bake_decision_tables(extra_params={"cols": 64})
        assert baked == 0
        assert segment.dispatch is None
        assert compiled.stats.sweep_failures >= 1

    def test_typo_level_bug_propagates_loudly(self, monkeypatch):
        compiled = _compile()
        segment = compiled.segments[0]

        def buggy(model, params):
            raise AttributeError("typo in cost model")

        for plan in segment.plans:
            monkeypatch.setattr(plan, "predicted_seconds", buggy)
        with pytest.raises(AttributeError, match="typo"):
            compiled.bake_decision_tables(extra_params={"cols": 64})
        assert compiled.stats.sweep_failures == 0
