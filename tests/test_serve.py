"""Serving front door + ``run_batch`` bugfix regressions.

Covers the asyncio front door at unit scale — admission control
(queue depth, tenant quota), shape-bucket coalescing at dispatch time,
priority-then-arrival dispatch order, model-guarded stream-axis fusion,
per-request failure isolation under fault injection, per-tenant
calibration, the bounded latency window — and pins
the three ``run_many`` fixes that shipped with it: the threaded
selection-refresh race, feedback retention on partially-failed
batches, and per-binding select-stage attribution.
"""

import asyncio

import numpy as np
import pytest

from repro import Filter, Pipeline, StreamProgram, api
from repro.apps import tmv
from repro.compiler import AdapticCompiler
from repro.errors import AdmissionError, KernelExecutionError, ServeError
from repro.faults import FaultInjector, FaultPlan
from repro.gpu import DeviceArray, TESLA_C2050
from repro.serve import (AdmissionPolicy, Priority, ServeConfig, Server,
                         ServeMetrics, TenantConfig, percentile)
from repro.serve import server as server_module
from repro.serve.metrics import LATENCY_WINDOW, STAGES
from repro.compiler import RunOptions

from workloads import SCALE_SRC

pytestmark = pytest.mark.serve

#: Variants at the single tmv segment; a terminal failure must exhaust
#: all of them (the fault plans below rely on this count).
TMV_VARIANTS = 10


@pytest.fixture
def compiled():
    DeviceArray.reset_base_allocator()
    return AdapticCompiler(TESLA_C2050).compile(tmv.build())


def make_binding(rng, rows=16, cols=16, n=4):
    """``n`` requests sharing one scalar binding (and one vec object)."""
    matrix, _vec, params = tmv.make_input(rows, cols, rng)
    inputs = [matrix] + [rng.standard_normal(rows * cols)
                         for _ in range(n - 1)]
    return inputs, params


# ---------------------------------------------------------------------------
# run_batch / run_many bugfix regressions
# ---------------------------------------------------------------------------
class TestRunBatchFixes:
    def test_partial_failure_isolates_item_and_keeps_rest(self, compiled,
                                                          rng):
        """One poisoned item fails alone; batch-mates complete."""
        inputs, params = make_binding(rng, n=4)
        compiled.run(inputs[0], params)  # warm the binding
        # Executions after attach: 1..4 = items 0..3 (a serial batch
        # runs no warmup).  nth=2/count=V makes exactly item 1 exhaust
        # every variant and fail terminally.
        compiled.faults = FaultInjector(
            [FaultPlan(family="*", kind="raise", nth=2,
                       count=TMV_VARIANTS)], seed=0)
        before = compiled.stats.snapshot()
        outcome = compiled.run_batch(inputs, [params] * 4)
        assert sorted(outcome.errors) == [1]
        assert isinstance(outcome.errors[1], KernelExecutionError)
        assert not outcome.ok
        assert [r is not None for r in outcome.results] == [
            True, False, True, True]
        # The three completed items are the batch's only runs.
        assert compiled.stats.since(before).runs == 3
        reference = [np.asarray(m).reshape(-1, params["cols"]) @
                     params["vec"] for m in inputs]
        for index in (0, 2, 3):
            np.testing.assert_allclose(outcome.results[index].output,
                                       reference[index])

    def test_run_many_raises_with_partials_after_feedback(self, compiled,
                                                          rng):
        """A partially-failed batch still folds completed feedback in."""
        a_inputs, a_params = make_binding(rng, rows=16, cols=16, n=2)
        b_inputs, b_params = make_binding(rng, rows=32, cols=32, n=1)
        compiled.run(a_inputs[0], a_params)
        compiled.run(b_inputs[0], b_params)
        assert len(compiled.calibration) == 0
        # Executions after attach: 1-2 = binding-A items, 3.. = the B
        # item's terminal exhaustion (a serial batch runs no warmup).
        compiled.faults = FaultInjector(
            [FaultPlan(family="*", kind="raise", nth=3,
                       count=TMV_VARIANTS)], seed=0)
        with pytest.raises(KernelExecutionError) as excinfo:
            compiled.run_many(a_inputs + b_inputs,
                              [a_params, a_params, b_params],
                              options=RunOptions(feedback=True))
        error = excinfo.value
        assert sorted(error.batch_errors) == [2]
        assert error.batch_index == 2
        assert [r is not None for r in error.partial_results] == [
            True, True, False]
        # The fix: binding A's measured observation survives the raise.
        assert len(compiled.calibration) > 0

    def test_select_time_attributed_to_first_result_per_binding(
            self, compiled, rng):
        """select is no longer hard-coded 0.0 for every batch item."""
        a_inputs, a_params = make_binding(rng, rows=16, cols=16, n=2)
        b_inputs, b_params = make_binding(rng, rows=8, cols=64, n=1)
        results = compiled.run_many(a_inputs + b_inputs,
                                    [a_params, a_params, b_params])
        assert results[0].stage_seconds["select"] > 0.0
        assert results[1].stage_seconds["select"] == 0.0
        assert results[2].stage_seconds["select"] > 0.0

    def test_mid_batch_fault_recovery_stays_consistent(self, compiled,
                                                       rng):
        """Mid-batch faults degrade items one after another; the batch
        must degrade gracefully — every item completes, counters match
        the injection plan exactly, and the items after the last
        degraded one start from its replacement selection.
        """
        inputs, params = make_binding(rng, rows=16, cols=16, n=24)
        compiled.run(inputs[0], params)
        reference = [np.asarray(m).reshape(-1, params["cols"]) @
                     params["vec"] for m in inputs]
        compiled.faults = FaultInjector(
            [FaultPlan(family="*", kind="raise", nth=3, count=4)], seed=0)
        before = compiled.stats.snapshot()
        outcome = compiled.run_batch(inputs, [params] * len(inputs))
        assert outcome.ok, f"unexpected failures: {outcome.errors}"
        delta = compiled.stats.since(before)
        assert delta.faults_injected == 4
        assert delta.retries == 4
        assert delta.degraded_runs == 1
        for result, expected in zip(outcome.results, reference):
            np.testing.assert_allclose(result.output, expected)
        # Executions 3-6 fail, all on the third item; the selection
        # refresh puts every later item on the variant it degraded onto.
        strategies = [r.selections[0].strategy for r in outcome.results]
        assert len(set(strategies[2:])) == 1
        assert strategies[2] != strategies[0]


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_queue_depth_rejection(self, compiled, rng):
        inputs, params = make_binding(rng, n=2)
        config = ServeConfig(max_batch=2, max_queue_depth=1)

        async def scenario():
            async with Server(compiled, config) as server:
                first = asyncio.ensure_future(
                    server.submit(inputs[0], params))
                await asyncio.sleep(0)
                assert server.pending == 1
                with pytest.raises(AdmissionError) as excinfo:
                    await server.submit(inputs[1], params)
                assert excinfo.value.reason == "queue_full"
                assert server.metrics.rejected == {"queue_full": 1}
            # close() drained every admitted request, resolving `first`.
            result = await first
            assert result.batch_size == 1
        asyncio.run(scenario())

    def test_tenant_quota_rejection(self, compiled, rng):
        inputs, params = make_binding(rng, n=3)
        config = ServeConfig(max_batch=4, max_queue_depth=16)

        async def scenario():
            async with Server(compiled, config,
                              tenants=[TenantConfig("alice",
                                                    quota=1)]) as server:
                first = asyncio.ensure_future(
                    server.submit(inputs[0], params, tenant="alice"))
                await asyncio.sleep(0)
                with pytest.raises(AdmissionError) as excinfo:
                    await server.submit(inputs[1], params, tenant="alice")
                assert excinfo.value.reason == "tenant_quota"
                assert excinfo.value.tenant == "alice"
                # Another tenant is unaffected by alice's quota.
                second = asyncio.ensure_future(
                    server.submit(inputs[2], params, tenant="bob"))
                await asyncio.sleep(0)
                assert server.pending == 2
            await asyncio.gather(first, second)
            assert server.tenant("alice").rejected == 1
        asyncio.run(scenario())

    def test_closed_server_rejects(self, compiled, rng):
        inputs, params = make_binding(rng, n=1)

        async def scenario():
            server = Server(compiled)
            await server.start()
            await server.close()
            with pytest.raises(ServeError) as excinfo:
                await server.submit(inputs[0], params)
            assert excinfo.value.reason == "closed"
        asyncio.run(scenario())

    def test_priority_headroom_ordering(self):
        policy = AdmissionPolicy(max_queue_depth=8)
        assert (policy.depth_limit(Priority.HIGH)
                > policy.depth_limit(Priority.NORMAL)
                > policy.depth_limit(Priority.LOW))


# ---------------------------------------------------------------------------
# Coalescing at dispatch time
# ---------------------------------------------------------------------------
class TestCoalescing:
    def test_same_binding_requests_share_one_dispatch(self, compiled, rng):
        a_inputs, a_params = make_binding(rng, rows=16, cols=16, n=4)
        b_inputs, b_params = make_binding(rng, rows=8, cols=32, n=2)
        config = ServeConfig(max_batch=4)

        async def scenario():
            async with Server(compiled, config) as server:
                jobs = ([server.submit(m, a_params) for m in a_inputs]
                        + [server.submit(m, b_params) for m in b_inputs])
                return await asyncio.gather(*jobs), server.metrics
        results, metrics = asyncio.run(scenario())
        assert [r.batch_size for r in results] == [4, 4, 4, 4, 2, 2]
        assert metrics.dispatches == 2
        assert metrics.batched_requests == 6
        assert metrics.max_batch_size == 4

    def test_groups_form_at_dispatch_without_a_timer(self, compiled, rng):
        """Same-binding requests submitted together dispatch as one
        group; a lone request on an idle server dispatches at once."""
        inputs, params = make_binding(rng, n=3)
        config = ServeConfig(max_batch=8)

        async def scenario():
            async with Server(compiled, config) as server:
                together = await asyncio.gather(
                    server.submit(inputs[0], params),
                    server.submit(inputs[1], params))
                lone = asyncio.ensure_future(
                    server.submit(inputs[2], params))
                # Two loop turns: the submit wakes the idle dispatcher,
                # which takes the request with no timer to wait out.
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                assert len(server._batcher) == 0
                assert server.pending == 1
                return together, await lone, server.metrics
        together, lone, metrics = asyncio.run(scenario())
        assert [r.batch_size for r in together] == [2, 2]
        assert lone.batch_size == 1
        assert metrics.dispatches == 2
        for result in together + [lone]:
            assert set(result.stage_seconds) == set(STAGES)
            assert all(v >= 0.0 for v in result.stage_seconds.values())


# ---------------------------------------------------------------------------
# Stream-axis fusion
# ---------------------------------------------------------------------------
class TestFusion:
    def test_fused_outputs_bit_identical_to_solo_runs(self, compiled, rng,
                                                      monkeypatch):
        monkeypatch.setattr(server_module, "FUSE_MIN_GAIN", 0.0)
        inputs, params = make_binding(rng, n=4)
        reference = [compiled.run(m, params).output.copy() for m in inputs]
        config = ServeConfig(max_batch=4, fuse_axis="rows")

        async def scenario():
            async with Server(compiled, config) as server:
                return (await asyncio.gather(
                    *[server.submit(m, params) for m in inputs]),
                    server.metrics)
        results, metrics = asyncio.run(scenario())
        assert metrics.fused_dispatches == 1
        for result, expected in zip(results, reference):
            assert result.fused
            np.testing.assert_array_equal(result.output, expected)

    def test_fuse_guard_keeps_unprofitable_groups_unfused(self, compiled,
                                                          rng, monkeypatch):
        monkeypatch.setattr(server_module, "FUSE_MIN_GAIN", float("inf"))
        inputs, params = make_binding(rng, n=4)
        config = ServeConfig(max_batch=4, fuse_axis="rows")

        async def scenario():
            async with Server(compiled, config) as server:
                return (await asyncio.gather(
                    *[server.submit(m, params) for m in inputs]),
                    server.metrics)
        results, metrics = asyncio.run(scenario())
        assert metrics.fused_dispatches == 0
        assert metrics.dispatches == 1
        assert not any(r.fused for r in results)

    def test_predicted_fuse_gain_grows_with_group(self, compiled, rng):
        _inputs, params = make_binding(rng, n=1)
        server = Server(compiled, ServeConfig(fuse_axis="rows"))
        gains = [server._predicted_fuse_gain(params, k) for k in (2, 8, 16)]
        assert gains[0] < gains[1] < gains[2]


SQUARE_SRC = """
def square(n):
    for i in range(n):
        x = pop()
        push(x * x + 0.5)
"""


class TestFusedPathHonorsOptions:
    """The fused path selects under ``ServeConfig.options`` — its input
    location and placement pin — exactly as ``run_batch`` does (it used
    to select with the defaults and force that chain on the fused run)."""

    @pytest.fixture(autouse=True)
    def always_fuse(self, monkeypatch):
        monkeypatch.setattr(server_module, "FUSE_MIN_GAIN", 0.0)

    def _assert_served_like_run_batch(self, compiled, inputs, params,
                                      config):
        batch = compiled.run_batch(inputs, params, options=config.options)

        async def scenario():
            async with Server(compiled, config) as server:
                return await asyncio.gather(
                    *[server.submit(m, params) for m in inputs])
        served = asyncio.run(scenario())
        for result, expected in zip(served, batch.results):
            assert result.fused
            assert ([s.strategy for s in result.run.selections]
                    == [s.strategy for s in expected.selections])
            assert result.output.tobytes() == expected.output.tobytes()
        return served

    def test_device_resident_input(self, compiled, rng):
        inputs, params = make_binding(rng, rows=512, cols=8, n=4)
        config = ServeConfig(
            max_batch=4, fuse_axis="rows",
            options=RunOptions(location=api.InputLocation.DEVICE))
        served = self._assert_served_like_run_batch(compiled, inputs,
                                                    params, config)
        for result, matrix in zip(served, inputs):
            np.testing.assert_allclose(
                result.output,
                tmv.reference(matrix, params["vec"], 512, 8))

    def test_placement_pin(self, rng):
        prog = StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                     Filter(SQUARE_SRC, pop="n", push="n")),
            params=["n", "a"], input_size="n")
        placed = api.compile(prog, options=api.AdapticOptions(
            integration=False, placement=True))
        params = {"n": 64, "a": 1.5}
        inputs = [rng.standard_normal(64) for _ in range(4)]
        config = ServeConfig(max_batch=4, fuse_axis="n",
                             options=RunOptions(placement="gpu"))
        served = self._assert_served_like_run_batch(placed, inputs, params,
                                                    config)
        assert all(s.strategy == "map.grid_stride"
                   for s in served[0].run.selections)


# ---------------------------------------------------------------------------
# Per-request failure isolation (fault-injected acceptance gate)
# ---------------------------------------------------------------------------
class TestFailureIsolation:
    def test_poisoned_request_fails_alone_in_coalesced_batch(
            self, compiled, rng):
        """Acceptance: one poisoned request fails its own future while
        every other request in the same coalesced batch completes."""
        inputs, params = make_binding(rng, n=4)
        compiled.run(inputs[0], params)  # warm the binding
        reference = [np.asarray(m).reshape(-1, params["cols"]) @
                     params["vec"] for m in inputs]
        # Dispatch executions: 1..4 = items 0..3 (the group's serial
        # run_batch runs no warmup); nth=2 poisons exactly item 1 until
        # every variant is exhausted.
        compiled.faults = FaultInjector(
            [FaultPlan(family="*", kind="raise", nth=2,
                       count=TMV_VARIANTS)], seed=0)
        config = ServeConfig(max_batch=4)
        before = compiled.stats.snapshot()

        async def scenario():
            async with Server(compiled, config) as server:
                jobs = [server.submit(m, params) for m in inputs]
                outcome = await asyncio.gather(*jobs,
                                               return_exceptions=True)
                return outcome, server.metrics
        outcome, metrics = asyncio.run(scenario())
        assert isinstance(outcome[1], KernelExecutionError)
        for index in (0, 2, 3):
            assert not isinstance(outcome[index], BaseException)
            np.testing.assert_allclose(outcome[index].output,
                                       reference[index])
        assert metrics.completed == 3
        assert metrics.failed == 1
        assert metrics.dispatches == 1
        assert compiled.stats.since(before).runs == 3

    def test_fused_failure_falls_back_to_per_item_dispatch(self, compiled,
                                                           rng, monkeypatch):
        monkeypatch.setattr(server_module, "FUSE_MIN_GAIN", 0.0)
        inputs, params = make_binding(rng, n=3)
        compiled.run(inputs[0], params)
        reference = [np.asarray(m).reshape(-1, params["cols"]) @
                     params["vec"] for m in inputs]
        # The fused run is the first execution after attach; exhausting
        # every variant fails it terminally, forcing the unfused
        # fallback (whose executions fall outside the fault window).
        compiled.faults = FaultInjector(
            [FaultPlan(family="*", kind="raise", nth=1,
                       count=TMV_VARIANTS)], seed=0)
        config = ServeConfig(max_batch=3, fuse_axis="rows")

        async def scenario():
            async with Server(compiled, config) as server:
                results = await asyncio.gather(
                    *[server.submit(m, params) for m in inputs])
                return results, server.metrics
        results, metrics = asyncio.run(scenario())
        assert metrics.fused_fallbacks == 1
        assert metrics.fused_dispatches == 0
        assert metrics.completed == 3
        for result, expected in zip(results, reference):
            assert not result.fused
            np.testing.assert_allclose(result.output, expected)


# ---------------------------------------------------------------------------
# Tenancy, dispatch order, metrics
# ---------------------------------------------------------------------------
class TestTenancyAndMetrics:
    def test_per_tenant_completions_counted(self, compiled, rng):
        inputs, params = make_binding(rng, n=2)
        config = ServeConfig(max_batch=2)

        async def scenario():
            async with Server(compiled, config) as server:
                await asyncio.gather(
                    server.submit(inputs[0], params, tenant="alice"),
                    server.submit(inputs[1], params, tenant="bob"))
                return server
        server = asyncio.run(scenario())
        assert server.tenant("alice").completed == 1
        assert server.tenant("bob").completed == 1
        assert server.metrics.summary()["completed"] == 2

    def test_tenant_table_is_bounded(self, compiled, rng):
        """2000 one-request tenants leave at most TENANT_WINDOW
        auto-registered entries, the most recent ones, beside every
        configured tenant."""
        inputs, params = make_binding(rng, rows=4, cols=4, n=1)
        names = [f"t{i}" for i in range(2000)]

        async def scenario():
            config = ServeConfig(max_batch=100, options=RunOptions(
                exec_mode=api.ExecMode.VECTORIZED))
            async with Server(compiled, config, tenants=["carol"]) as server:
                for start in range(0, len(names), 100):
                    await asyncio.gather(*(
                        server.submit(inputs[0], params, tenant=name)
                        for name in names[start:start + 100]))
                return server
        server = asyncio.run(scenario())
        window = server_module.TENANT_WINDOW
        assert len(server.tenants) == window + 1
        assert "carol" in server.tenants
        assert set(server.tenants) - {"carol"} == set(names[-window:])
        assert all(server.tenants[name].completed == 1
                   for name in names[-window:])
        assert server.metrics.summary()["completed"] == len(names)

    def test_tenants_in_flight_are_kept(self, compiled, rng, monkeypatch):
        """Only idle tenants are dropped: four concurrent tenants over a
        window of two all keep their counts until they finish."""
        monkeypatch.setattr(server_module, "TENANT_WINDOW", 2)
        inputs, params = make_binding(rng, n=5)
        names = ["a", "b", "c", "d"]

        async def scenario():
            async with Server(compiled) as server:
                await asyncio.gather(*(
                    server.submit(data, params, tenant=name)
                    for data, name in zip(inputs, names)))
                assert all(server.tenants[name].completed == 1
                           for name in names)
                await server.submit(inputs[4], params, tenant="e")
                return server
        server = asyncio.run(scenario())
        assert set(server.tenants) == {"d", "e"}

    def test_dispatch_orders_by_priority_then_arrival(self, compiled, rng):
        """The free dispatcher takes the best priority class first and
        the oldest request within a class."""
        inputs, params = make_binding(rng, n=4)
        priorities = [Priority.LOW, Priority.NORMAL, Priority.HIGH,
                      Priority.NORMAL]
        order = []

        async def scenario():
            # max_batch=1: every request is its own dispatch group.
            async with Server(compiled, ServeConfig(max_batch=1)) as server:
                jobs = []
                for index, priority in enumerate(priorities):
                    job = asyncio.ensure_future(server.submit(
                        inputs[index], params, priority=priority))
                    job.add_done_callback(
                        lambda _job, index=index: order.append(index))
                    jobs.append(job)
                await asyncio.gather(*jobs)
        asyncio.run(scenario())
        assert order == [2, 1, 3, 0]

    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 101)

    def test_latency_window_is_bounded(self):
        """Percentiles read the last LATENCY_WINDOW completions only."""
        metrics = ServeMetrics()
        for _ in range(100):
            metrics.record_completion(1e3, {})      # aged-out outliers
        recent = [float(v) for v in range(1, LATENCY_WINDOW + 1)]
        for latency in recent:
            metrics.record_completion(latency, {})
        assert len(metrics.latencies) == LATENCY_WINDOW
        assert metrics.completed == LATENCY_WINDOW + 100
        assert metrics.latency_percentile(99) == percentile(recent, 99)
        assert metrics.latency_percentile(100) == recent[-1]
