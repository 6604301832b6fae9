"""Property-based tests (hypothesis) for core invariants."""

import asyncio
import dataclasses
import itertools
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import StreamProgram, api
from repro.compiler.exprgen import SOURCE_REGISTRY
from repro.compiler import runtime
from repro.compiler.runtime import InputLocation
from repro.errors import CompileError
from repro.gpu import Device, ExecMode, TESLA_C2050
from repro.gpu.memory import bank_conflict_degree, coalesce_transactions
from repro.ir import classify, lift_code, run_work
from repro.ir.rates import RateExpr
from repro.compiler.exprgen import compile_scalar_fn
from repro.compiler.fusion import compose_maps, fuse_map_into_reduction
from repro.compiler.plans import (ReduceShape, ReduceSingleKernelPlan,
                                  ReduceTwoKernelPlan)
from repro.compiler.reducers import ScalarReducer
from repro.serve import ServeConfig, Server
from repro.serve import server as server_module
from repro.streamit import Filter, Pipeline, flatten, rate_match, run_program

from workloads import SCALE_SRC, SUM_SRC

SPEC = TESLA_C2050


# ---------------------------------------------------------------------------
# Memory system
# ---------------------------------------------------------------------------

class TestCoalescingProperties:
    @given(st.lists(st.integers(0, 1 << 24), min_size=1, max_size=32))
    def test_transactions_bounded(self, addrs):
        txns = coalesce_transactions(addrs, 128)
        assert 1 <= txns <= len(addrs)

    @given(st.lists(st.integers(0, 1 << 24), min_size=1, max_size=32),
           st.integers(0, 1 << 20))
    def test_translation_within_segment_alignment(self, addrs, shift):
        """Shifting all addresses by a segment multiple preserves txns."""
        txns = coalesce_transactions(addrs, 128)
        shifted = [a + 128 * shift for a in addrs]
        assert coalesce_transactions(shifted, 128) == txns

    @given(st.lists(st.integers(0, 1 << 24), min_size=1, max_size=32))
    def test_monotone_in_subsets(self, addrs):
        txns = coalesce_transactions(addrs, 128)
        assert coalesce_transactions(addrs[: len(addrs) // 2 + 1], 128) \
            <= txns

    @given(st.lists(st.integers(0, 4096), min_size=1, max_size=32),
           st.sampled_from([16, 32]))
    def test_bank_conflict_bounds(self, words, banks):
        degree = bank_conflict_degree(words, banks)
        assert 1 <= degree <= len(set(words))


# ---------------------------------------------------------------------------
# Rate matching
# ---------------------------------------------------------------------------

class TestRateMatchingProperties:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
           st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_balance_equations_hold(self, push_a, pop_b, push_b, pop_c):
        a = Filter(f"def a():\n    _ = pop()\n"
                   + "".join(f"    push({i}.0)\n" for i in range(push_a)),
                   pop=1, push=push_a, name="a")
        body_b = "".join("    _ = pop()\n" for _ in range(pop_b))
        body_b += "".join(f"    push({i}.0)\n" for i in range(push_b))
        b = Filter("def b():\n" + body_b, pop=pop_b, push=push_b, name="b")
        body_c = "".join("    _ = pop()\n" for _ in range(pop_c))
        c = Filter("def c():\n" + body_c + "    push(1.0)\n",
                   pop=pop_c, push=1, name="c")
        graph = flatten(Pipeline(a, b, c))
        schedule = rate_match(graph, {})
        nodes = graph.topological_order()
        # Every channel is balanced: produced == consumed per steady state.
        for chan in graph.channels:
            produced = (schedule.repetitions[chan.src.id]
                        * chan.src.push_rates({})[chan.src_port])
            consumed = (schedule.repetitions[chan.dst.id]
                        * chan.dst.pop_rates({})[chan.dst_port])
            assert produced == consumed
        # Minimality: the repetition vector has gcd 1.
        reps = [schedule.repetitions[n.id] for n in nodes]
        assert math.gcd(*reps) == 1 if len(reps) > 1 else reps[0] == 1


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------

class TestRateExprProperties:
    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_arithmetic_matches_python(self, a, b):
        expr = RateExpr("x*y + x + 2")
        assert expr.evaluate({"x": a, "y": b}) == a * b + a + 2

    @given(st.integers(1, 100), st.integers(1, 100))
    def test_mul_add_operators(self, a, b):
        r = RateExpr("n") * 2 + RateExpr("m")
        assert r.evaluate({"n": a, "m": b}) == 2 * a + b


# ---------------------------------------------------------------------------
# Pattern matching + execution round trips
# ---------------------------------------------------------------------------

_ELEMENTS = {
    "x": "pop()",
    "abs": "abs(pop())",
    "square": "pop() * pop()",
    "affine": "2.0 * pop() + 1.0",
}


class TestReductionRoundTrip:
    @given(st.sampled_from(sorted(_ELEMENTS)),
           st.sampled_from(["+", "max"]),
           st.integers(1, 5), st.integers(4, 40),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_compiled_reduction_matches_interpreter(
            self, elem_key, kind, narrays, nelements, seed):
        elem = _ELEMENTS[elem_key]
        if kind == "+":
            src = (f"def w(n):\n    acc = 0.0\n    for i in range(n):\n"
                   f"        acc = acc + {elem}\n    push(acc)\n")
        else:
            src = (f"def w(n):\n    acc = -1e30\n    for i in range(n):\n"
                   f"        acc = max(acc, {elem})\n    push(acc)\n")
        work = lift_code(src)
        result = classify(work)
        assume(result.category == "reduction")
        pattern = result.pattern
        k = pattern.pops_per_iter

        rng = np.random.default_rng(seed)
        data = rng.standard_normal(narrays * nelements * k)
        params = {"n": nelements}
        expected = []
        cursor = 0
        for _ in range(narrays):
            out = run_work(work, data[cursor:cursor + nelements * k],
                           params)
            expected.extend(out)
            cursor += nelements * k

        shape = ReduceShape(lambda p: narrays, lambda p: nelements, k)
        reducer_fn = lambda p: ScalarReducer(pattern, p)  # noqa: E731
        for plan_cls in (ReduceSingleKernelPlan, ReduceTwoKernelPlan):
            plan = plan_cls(SPEC, "w", shape, reducer_fn, threads=32)
            dev = Device(SPEC)
            buf = dev.to_device(data, "in")
            out = plan.execute(dev, {"in": buf}, params)
            assert np.allclose(out.data, expected, rtol=1e-6, atol=1e-9)


class TestFusionAlgebra:
    @given(st.floats(-4, 4, allow_nan=False),
           st.floats(-4, 4, allow_nan=False),
           st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_compose_maps_is_function_composition(self, a, b, x):
        up = classify(lift_code(
            "def u(n, a):\n    for i in range(n):\n"
            "        push(a * pop() + 1.0)\n")).pattern
        down = classify(lift_code(
            "def d(n, b):\n    for i in range(n):\n"
            "        push(pop() * pop() + b)\n")).pattern
        # down consumes 2 per iteration, up produces 1: grouping by 2.
        fused = compose_maps(up, down)
        assert fused is not None
        fn = compile_scalar_fn(fused.outputs[0], ["_x0", "_x1", "_i"],
                               {"a": a, "b": b})
        up_fn = lambda v: a * v + 1.0  # noqa: E731
        expected = up_fn(x) * up_fn(-x) + b
        assert fn(x, -x, 0) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(st.floats(-4, 4, allow_nan=False),
           st.lists(st.floats(-10, 10, allow_nan=False), min_size=1,
                    max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_fused_map_reduce_equals_sequential(self, scale, values):
        up = classify(lift_code(
            "def u(n, a):\n    for i in range(n):\n"
            "        push(a * pop())\n")).pattern
        down = classify(lift_code(
            "def d(n):\n    acc = 0.0\n    for i in range(n):\n"
            "        acc = acc + pop()\n    push(acc)\n")).pattern
        fused = fuse_map_into_reduction(up, down)
        assert fused is not None
        elem = compile_scalar_fn(fused.element, ["_x0", "_i"],
                                 {"a": scale})
        total = sum(elem(v, i) for i, v in enumerate(values))
        assert total == pytest.approx(scale * sum(values), rel=1e-9,
                                      abs=1e-9)


class TestWorkInterpreterProperties:
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                    max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_sum_reduction_semantics(self, values):
        work = lift_code("def s(n):\n    acc = 0.0\n"
                         "    for i in range(n):\n"
                         "        acc = acc + pop()\n    push(acc)\n")
        (out,) = run_work(work, values, {"n": len(values)})
        assert out == pytest.approx(sum(values), rel=1e-12, abs=1e-9)

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2,
                    max_size=30).filter(lambda v: len(v) % 2 == 0))
    @settings(max_examples=40, deadline=None)
    def test_map_consumes_exactly_its_rate(self, values):
        work = lift_code("def m(n):\n    for i in range(n):\n"
                         "        push(pop() + pop())\n")
        out = run_work(work, values, {"n": len(values) // 2})
        assert len(out) == len(values) // 2


class TestOccupancyProperties:
    @given(st.integers(1, 1024), st.integers(1, 64),
           st.integers(0, 48 * 1024))
    def test_blocks_per_sm_monotone_in_resources(self, threads, regs,
                                                 shared):
        fit = SPEC.blocks_per_sm(threads, regs, shared)
        assert fit >= SPEC.blocks_per_sm(threads, regs + 4, shared)
        assert fit >= SPEC.blocks_per_sm(threads, regs, shared + 1024)
        assert 0 <= fit <= SPEC.max_blocks_per_sm


class TestTransformProperties:
    @given(st.integers(-20, 20), st.integers(1, 8),
           st.floats(-10, 10, allow_nan=False),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_induction_substitution_preserves_semantics(
            self, init, step, base, seed):
        """Random counter-recurrence programs: the rewritten work function
        agrees with the original on random inputs of several lengths."""
        from repro.ir import substitute_recurrences
        src = (f"def f(n):\n"
               f"    count = {init}\n"
               f"    for i in range(n):\n"
               f"        count = count + {step}\n"
               f"        push(count * pop() + {base!r})\n"
               f"    push(count)\n")
        work = lift_code(src)
        rewritten = substitute_recurrences(work)
        assert rewritten is not None
        rng = np.random.default_rng(seed)
        for n in (0, 1, 5):
            data = list(rng.standard_normal(max(n, 1)))
            original = run_work(work, data, {"n": n})
            transformed = run_work(rewritten, data, {"n": n})
            assert len(original) == len(transformed)
            for a, b in zip(original, transformed):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


class TestPruneProperties:
    @given(st.integers(2, 6), st.integers(2, 8),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_greedy_cover_keeps_every_point_near_optimal(
            self, n_variants, n_points, seed):
        """After pruning, every sampled point is still served within the
        tolerance by some surviving plan."""
        from repro.compiler.segments import Segment
        from repro.compiler.plans.base import KernelPlan

        rng = np.random.default_rng(seed)
        times = rng.uniform(1.0, 10.0, size=(n_variants, n_points))

        class FakePlan(KernelPlan):
            def __init__(self, idx):
                super().__init__(SPEC, f"fake{idx}")
                self.strategy = f"fake{idx}"
                self.idx = idx

            def launches(self, params):
                return []

            def predicted_seconds(self, model, params):
                return float(times[self.idx][params["p"]])

            def execute(self, device, buffers, params):
                raise NotImplementedError

            def output_size(self, params):
                return 1

        from repro.perfmodel import PerformanceModel
        plans = [FakePlan(i) for i in range(n_variants)]
        seg = Segment(name="s", kind="fake", plans=list(plans),
                      input_size=lambda p: 1, output_size=lambda p: 1)
        points = [{"p": j} for j in range(n_points)]
        model = PerformanceModel(SPEC)
        tolerance = 0.10
        kept = seg.prune(model, points, tolerance=tolerance)
        assert kept
        for j in range(n_points):
            best = times[:, j].min()
            served = min(times[p.idx][j] for p in kept)
            assert served <= best * (1 + tolerance) + 1e-12


# ---------------------------------------------------------------------------
# The option lattice over random programs
# ---------------------------------------------------------------------------

#: Map stages the random pipelines draw from (each pops and pushes n).
LATTICE_STAGES = {
    "scale": SCALE_SRC,
    "square": "def square(n):\n    for i in range(n):\n"
              "        x = pop()\n        push(x * x + 0.5)\n",
    "squash": "def squash(n):\n    for i in range(n):\n"
              "        x = pop()\n        push(x / (1.0 + abs(x)))\n",
    "offset": "def offset(n, a):\n    for i in range(n):\n"
              "        push(pop() - a)\n",
}

#: The box a pruned lattice program declares.
LATTICE_RANGES = {"n": (16, 4096)}


def _lattice_program(stages, reduce, ranges=None):
    filters = [Filter(LATTICE_STAGES[kind], pop="n", push="n",
                      name=f"{kind}{i}")
               for i, kind in enumerate(stages)]
    if reduce:
        filters.append(Filter(SUM_SRC, pop="n", push=1, name="sum"))
    return StreamProgram(Pipeline(*filters), params=["n", "a"],
                         input_size="n", input_ranges=ranges)


class TestOptionLatticeProperties:
    """Every execution route agrees with the sequential interpreter.

    A random chain of map stages (optionally ending in a sum reduction),
    compiled under random placement / integration / prune flags, runs
    at every point of exec mode x input location x placement pin on a
    fresh device.  Each point must match ``run_program``, price
    exactly the transfers it records, and agree bit for bit with
    ``run_batch`` — serial, and fanned out over two threads — and with
    a bundle round trip of the same program.  A second property serves
    a same-binding group through ``Server``, fused and unfused, and
    checks it against ``run_batch``.
    """

    POINTS = list(itertools.product(
        (ExecMode.REFERENCE, ExecMode.VECTORIZED),
        (InputLocation.HOST, InputLocation.DEVICE),
        ("auto", "gpu", "cpu")))

    @given(stages=st.lists(st.sampled_from(sorted(LATTICE_STAGES)),
                           min_size=1, max_size=3),
           reduce=st.booleans(), n=st.integers(16, 4096),
           a=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1),
           placement=st.booleans(), integration=st.booleans(),
           prune=st.booleans())
    @example(stages=["scale"], reduce=True, n=300, a=1.5, seed=0,
             placement=False, integration=True, prune=True)
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_every_lattice_point_matches_the_interpreter(
            self, stages, reduce, n, a, seed, placement, integration,
            prune):
        program = _lattice_program(stages, reduce,
                                   LATTICE_RANGES if prune else None)
        options = api.AdapticOptions(
            placement=placement, integration=integration, prune=prune)
        try:
            compiled = api.compile(program, options=options)
        except CompileError as exc:
            # The box leaves ``a`` out; only a cost model that reads it
            # (a stage using ``a`` fused into the sum) may refuse, and
            # pruning with ``a`` pinned must then give a program that runs.
            assert prune and "['a']" in str(exc)
            options = dataclasses.replace(options, prune=False)
            compiled = api.compile(program, options=options)
            compiled.prune_variants(options.range_samples,
                                    extra_params={"a": a})
        data = np.random.default_rng(seed).standard_normal(n)
        params = {"n": n, "a": a}
        expected = run_program(program, data, params)

        seen = {}
        for mode, location, pin in self.POINTS:
            run_options = api.RunOptions(exec_mode=mode, location=location,
                                         placement=pin)
            device = Device(compiled.spec, exec_mode=mode)
            result = compiled.run(data, params, device=device,
                                  options=run_options)
            if reduce:
                np.testing.assert_allclose(result.output, expected,
                                           rtol=1e-10, atol=1e-9)
            else:
                assert result.output.tobytes() == expected.tobytes()
            assert result.transfer_seconds == device.transfer_seconds
            strategies = [sel.strategy for sel in result.selections]
            serial = compiled.run_batch([data, data], params,
                                        options=run_options)
            # Items this small run serially; force the threaded leg.
            with mock.patch.object(runtime, "batch_threads",
                                   lambda *args: 2):
                threaded = compiled.run_batch([data, data], params,
                                              options=run_options)
            for item in serial.results + threaded.results:
                assert [sel.strategy for sel in item.selections] \
                    == strategies
                assert item.output.tobytes() == result.output.tobytes()
            seen[(mode, location, pin)] = (strategies,
                                           result.output.tobytes())

        with tempfile.TemporaryDirectory() as tmpdir:
            path = os.path.join(tmpdir, "lattice.bundle.json")
            compiled.save_bundle(path)
            loaded = api.load_bundle(path, program, options=options)
        try:
            for (mode, location, pin), (strategies, output) in seen.items():
                result = loaded.run(data, params, options=api.RunOptions(
                    exec_mode=mode, location=location, placement=pin))
                assert [sel.strategy for sel in result.selections] \
                    == strategies
                assert result.output.tobytes() == output
        finally:
            SOURCE_REGISTRY.clear_loaded()

    @given(stages=st.lists(st.sampled_from(sorted(LATTICE_STAGES)),
                           min_size=1, max_size=3),
           reduce=st.booleans(), n=st.integers(16, 1024),
           a=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1),
           point=st.sampled_from(POINTS), placement=st.booleans(),
           integration=st.booleans())
    @settings(max_examples=20, derandomize=True, deadline=None)
    def test_served_groups_match_run_batch(self, stages, reduce, n, a, seed,
                                           point, placement, integration):
        """Three same-binding requests served as one group, fused along
        ``n`` or not, give ``run_batch``'s outputs under the same
        ``RunOptions``; a chain ending in the sum cannot fuse."""
        compiled = api.compile(
            _lattice_program(stages, reduce),
            options=api.AdapticOptions(placement=placement,
                                       integration=integration))
        rng = np.random.default_rng(seed)
        inputs = [rng.standard_normal(n) for _ in range(3)]
        params = {"n": n, "a": a}
        mode, location, pin = point
        options = api.RunOptions(exec_mode=mode, location=location,
                                 placement=pin)
        batch = compiled.run_batch(inputs, params, options=options)
        assert batch.ok

        for fuse_axis in ("n", None):
            config = ServeConfig(max_batch=3, fuse_axis=fuse_axis,
                                 options=options)

            async def serve():
                async with Server(compiled, config) as server:
                    return await asyncio.gather(
                        *(server.submit(x, params) for x in inputs))
            with mock.patch.object(server_module, "FUSE_MIN_GAIN", 0.0):
                served = asyncio.run(serve())
            for result, expected in zip(served, batch.results):
                assert result.batch_size == 3
                assert result.fused == (fuse_axis is not None
                                        and not reduce)
                assert ([sel.strategy for sel in result.run.selections]
                        == [sel.strategy for sel in expected.selections])
                assert result.output.tobytes() == expected.output.tobytes()
