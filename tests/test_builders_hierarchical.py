"""Tests for the DSL builder library and the hierarchical interpreter
(including feedback loops)."""

import numpy as np
import pytest

from repro import api
from repro.ir import classify
from repro.streamit import (Duplicate, FeedbackLoop, Filter,
                            HierarchicalError, Pipeline, SplitJoin,
                            StreamProgram, identity, map_filter,
                            reduce_filter, roundrobin, run_program,
                            run_stream, stencil_filter, transfer_filter)


class TestBuilders:
    def test_identity(self):
        out = run_stream(identity(), [1.0, 2.0, 3.0], {})
        assert np.array_equal(out, [1, 2, 3])

    def test_map_filter_classifies_as_map(self):
        f = map_filter("alpha * a + b", arity=2, params=("alpha",))
        assert classify(f.work).category == "map"
        out = run_stream(f, [1.0, 2.0, 3.0, 4.0], {"n": 2, "alpha": 2.0})
        assert np.array_equal(out, [4.0, 10.0])

    def test_map_filter_uses_index(self):
        f = map_filter("a + i", name="ramp")
        out = run_stream(f, [10.0, 10.0, 10.0], {"n": 3})
        assert np.array_equal(out, [10, 11, 12])

    def test_reduce_filter_kinds(self):
        data = [3.0, -1.0, 4.0, -5.0]
        checks = {"+": 1.0, "*": 60.0, "min": -5.0, "max": 4.0}
        for kind, expected in checks.items():
            f = reduce_filter(kind)
            assert classify(f.work).category == "reduction"
            (out,) = run_stream(f, data, {"n": 4})
            assert out == pytest.approx(expected)

    def test_reduce_filter_dot_product(self):
        f = reduce_filter("+", "a * b", arity=2, name="dot")
        (out,) = run_stream(f, [1.0, 2.0, 3.0, 4.0], {"n": 2})
        assert out == 14.0

    def test_reduce_filter_epilogue(self):
        f = reduce_filter("+", "a * a", epilogue="sqrt(acc)", name="norm")
        (out,) = run_stream(f, [3.0, 4.0], {"n": 2})
        assert out == 5.0

    def test_reduce_filter_bad_kind(self):
        with pytest.raises(ValueError):
            reduce_filter("xor")

    def test_stencil_filter_classifies(self):
        f = stencil_filter("(p0 + p1 + p2) / 3.0",
                           ["index - 1", "index", "index + 1"],
                           guard="(index >= 1) and (index < size - 1)")
        assert classify(f.work).category == "stencil"
        out = run_stream(f, [0.0, 3.0, 6.0, 9.0], {"size": 4})
        assert np.allclose(out, [0, 3, 6, 9])

    def test_transfer_filter_classifies(self):
        f = transfer_filter("n - 1 - i", name="reverse")
        assert classify(f.work).category == "transfer"
        out = run_stream(f, [1.0, 2.0, 3.0], {"n": 3})
        assert np.array_equal(out, [3, 2, 1])

    def test_built_program_compiles(self, rng):
        prog = StreamProgram(
            Pipeline(map_filter("2.0 * a", name="dbl"),
                     reduce_filter("+", name="tot")),
            params=["n"], input_size="n")
        compiled = api.compile(prog)
        data = rng.standard_normal(64)
        result = compiled.run(data, {"n": 64})
        assert result.output[0] == pytest.approx(2 * data.sum())


class TestHierarchicalInterpreter:
    def test_matches_flat_interpreter(self, rng):
        prog = StreamProgram(
            Pipeline(map_filter("3.0 * a", name="x3"),
                     reduce_filter("+", name="tot")),
            params=["n"])
        data = rng.standard_normal(24)
        flat = run_program(prog, data, {"n": 24})
        hier = run_stream(prog.top, data, {"n": 24})
        assert np.allclose(flat, hier)

    def test_splitjoin_duplicate(self, rng):
        sj = SplitJoin(Duplicate(),
                       [reduce_filter("max", name="mx"),
                        reduce_filter("+", name="sm")],
                       roundrobin(1))
        data = rng.standard_normal(16)
        out = run_stream(sj, data, {"n": 16})
        assert out[0] == pytest.approx(data.max())
        assert out[1] == pytest.approx(data.sum())

    def test_splitjoin_roundrobin(self):
        sj = SplitJoin(roundrobin(1, 1),
                       [map_filter("a * 2.0", count="k", name="e"),
                        map_filter("a * 3.0", count="k", name="o")],
                       roundrobin(1, 1))
        out = run_stream(sj, [1.0, 1.0, 1.0, 1.0], {"k": 1})
        assert np.array_equal(out, [2, 3, 2, 3])

    def test_unconsumed_input_raises(self):
        f = reduce_filter("+", name="tot")
        with pytest.raises(HierarchicalError):
            run_stream(Pipeline(identity(), f), [1.0, 2.0, 3.0], {"n": 2})

    def test_stateful_filter_keeps_state(self):
        acc = Filter("def r():\n    total = total + pop()\n    push(total)\n",
                     pop=1, push=1, state={"total": 0.0}, name="running")
        out = run_stream(acc, [1.0, 2.0, 3.0], {})
        assert np.array_equal(out, [1, 3, 6])


class TestFeedbackLoop:
    def _echo_loop(self):
        body = Filter("""
def echo(g):
    x = pop()
    y_prev = pop()
    push(x + g * y_prev)
""", pop=2, push=1, name="echo")
        dup = Filter("def dup():\n    x = pop()\n    push(x)\n    push(x)\n",
                     pop=1, push=2, name="dup")
        return FeedbackLoop(Pipeline(body, dup), identity("loopback"),
                            joiner=roundrobin(1, 1),
                            splitter=roundrobin(1, 1),
                            enqueued=[0.0])

    def test_iir_echo(self):
        out = run_stream(self._echo_loop(), [1.0, 0.0, 0.0, 2.0],
                         {"g": 0.5})
        assert np.allclose(out, [1.0, 0.5, 0.25, 2.125])

    def test_enqueued_seed_matters(self):
        loop = self._echo_loop()
        loop.enqueued = [8.0]
        out = run_stream(loop, [0.0, 0.0], {"g": 0.5})
        assert np.allclose(out, [4.0, 2.0])

    def test_fibonacci_loop(self):
        """The classic StreamIt feedback example: no external input rates —
        modeled here with a dummy tick stream driving each step."""
        body = Filter("""
def fib_step():
    _tick = pop()
    a = pop()
    b = pop()
    push(b)
    push(b)
    push(a + b)
""", pop=3, push=3, name="fib_step")
        # splitter: 1 downstream (the emitted fib number), 2 back (b, a+b).
        loop = FeedbackLoop(body, identity("back"),
                            joiner=roundrobin(1, 2),
                            splitter=roundrobin(1, 2),
                            enqueued=[0.0, 1.0])
        ticks = [0.0] * 8
        out = run_stream(loop, ticks, {})
        assert np.array_equal(out, [1, 1, 2, 3, 5, 8, 13, 21])

    def test_compiler_still_rejects_feedback(self):
        from repro.streamit import FlattenError, flatten
        with pytest.raises(FlattenError):
            flatten(self._echo_loop())

    def test_bad_way_counts_rejected(self):
        loop = FeedbackLoop(identity("b"), identity("l"),
                            joiner=roundrobin(1, 1, 1),
                            splitter=roundrobin(1, 1))
        with pytest.raises(HierarchicalError):
            run_stream(loop, [1.0], {})
