"""Tests for induction-variable substitution (intra-actor parallelization)."""

import numpy as np
import pytest

from repro import api
from repro.ir import classify, lift_code, run_work, substitute_recurrences
from repro.streamit import Filter, StreamProgram


class TestSubstitution:
    def test_counter_recurrence_removed(self):
        work = lift_code("""
def f(n):
    count = 0
    for i in range(n):
        count = count + 2
        push(count + pop())
""")
        rewritten = substitute_recurrences(work)
        assert rewritten is not None
        # Semantics preserved for several sizes.
        for n in (1, 3, 8):
            data = list(np.arange(float(n)))
            assert run_work(rewritten, data, {"n": n}) == \
                run_work(work, data, {"n": n})
        # And now it classifies as a map.
        assert classify(rewritten).category == "map"

    def test_symbolic_step(self):
        work = lift_code("""
def f(n, c):
    addr = 5
    for i in range(n):
        addr = addr + c
        push(addr * pop())
""")
        rewritten = substitute_recurrences(work)
        assert rewritten is not None
        data = list(np.arange(6.0))
        for c in (1, 3):
            assert run_work(rewritten, data, {"n": 6, "c": c}) == \
                run_work(work, data, {"n": 6, "c": c})

    def test_use_before_update_sees_entering_value(self):
        work = lift_code("""
def f(n):
    count = 10
    for i in range(n):
        push(count + pop())
        count = count + 1
""")
        rewritten = substitute_recurrences(work)
        assert rewritten is not None
        data = [0.0] * 5
        assert run_work(rewritten, data, {"n": 5}) == \
            run_work(work, data, {"n": 5}) == [10, 11, 12, 13, 14]

    def test_post_loop_use_sees_final_value(self):
        work = lift_code("""
def f(n):
    count = 0
    for i in range(n):
        count = count + 3
        push(pop())
    push(count)
""")
        rewritten = substitute_recurrences(work)
        assert rewritten is not None
        data = [1.0] * 4
        assert run_work(rewritten, data, {"n": 4})[-1] == 12

    def test_subtraction_recurrence(self):
        work = lift_code("""
def f(n):
    left = 100
    for i in range(n):
        left = left - 1
        push(left + pop())
""")
        rewritten = substitute_recurrences(work)
        assert rewritten is not None
        data = [0.0] * 3
        assert run_work(rewritten, data, {"n": 3}) == [99, 98, 97]

    def test_true_dependence_rejected(self):
        work = lift_code("""
def f(n):
    acc = 0.0
    for i in range(n):
        acc = acc * 0.5 + pop()
        push(acc)
""")
        assert substitute_recurrences(work) is None

    def test_already_parallel_returns_none(self):
        work = lift_code("""
def f(n):
    for i in range(n):
        push(pop() * 2.0)
""")
        assert substitute_recurrences(work) is None


class TestCompilerIntegration:
    def test_recurrence_actor_compiles_as_map(self, rng):
        src = """
def ramped(n):
    offset = 0.0
    for i in range(n):
        offset = offset + 0.5
        push(pop() + offset)
"""
        prog = StreamProgram(Filter(src, pop="n", push="n"),
                             params=["n"], input_size="n")
        compiled = api.compile(prog)
        assert compiled.segments[0].kind == "map"
        assert any("intra_actor_parallelization" in p.optimizations
                   for p in compiled.segments[0].plans)
        data = rng.standard_normal(32)
        result = compiled.run(data, {"n": 32})
        expected = data + 0.5 * (np.arange(32) + 1)
        assert np.allclose(result.output, expected)

    def test_transform_disabled_without_segmentation(self):
        from repro.compiler import AdapticCompiler, AdapticOptions
        src = """
def ramped(n):
    offset = 0.0
    for i in range(n):
        offset = offset + 0.5
        push(pop() + offset)
"""
        prog = StreamProgram(Filter(src, pop="n", push="n"),
                             params=["n"], input_size="n")
        options = AdapticOptions.baseline()
        compiled = AdapticCompiler(options=options).compile(prog)
        assert compiled.segments[0].kind == "generic"
