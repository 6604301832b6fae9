"""Tests for vertical integration of generic (unclassified) actor chains."""

import numpy as np
import pytest

from repro import AdapticOptions, Filter, Pipeline, StreamProgram, api
from repro.compiler import AdapticCompiler
from repro.compiler.plans.cpuplan import CPU_DISPATCH_SECONDS
from repro.gpu import TESLA_C2050
from repro.streamit import run_program

SORT2_SRC = """
def sort2(k):
    a = pop()
    b = pop()
    if a > b:
        push(a)
        push(b)
    else:
        push(b)
        push(a)
"""

DIFF_SRC = """
def diff(k):
    hi = pop()
    lo = pop()
    push(hi - lo)
"""


def chain_program():
    return StreamProgram(Pipeline(Filter(SORT2_SRC, pop=2, push=2),
                                  Filter(DIFF_SRC, pop=2, push=1)),
                         params=["k", "m"], input_size="2*m")


class TestGenericChainFusion:
    def test_fuses_into_one_segment(self):
        compiled = api.compile(chain_program())
        assert len(compiled.segments) == 1
        assert compiled.segments[0].kind == "generic_chain"
        strategies = {p.strategy for p in compiled.segments[0].plans}
        assert "generic.fused_chain" in strategies

    def test_fused_variant_matches_interpreter(self, rng):
        compiled = api.compile(chain_program())
        data = rng.standard_normal(2 * 30)
        params = {"k": 0, "m": 30}
        ref = run_program(chain_program(), data, params)
        seg = compiled.segments[0]
        for plan in seg.plans:
            result = compiled.run(data, params,
                                  force={seg.name: plan.strategy})
            assert np.allclose(result.output, ref), plan.strategy

    def test_no_fusion_without_integration(self):
        options = AdapticOptions(integration=False)
        compiled = AdapticCompiler(TESLA_C2050, options).compile(
            chain_program())
        assert len(compiled.segments) == 2

    def test_rate_mismatch_prevents_fusion(self):
        prog = StreamProgram(
            Pipeline(Filter(SORT2_SRC, pop=2, push=2),
                     Filter("""
def pick(k):
    a = pop()
    b = pop()
    c = pop()
    if a > c:
        push(a)
    else:
        push(c + b)
""", pop=3, push=1)),
            params=["k", "m"], input_size="6*m")
        compiled = api.compile(prog)
        assert len(compiled.segments) == 2

    def test_peek_lookahead_prevents_fusion(self):
        consumer = Filter("""
def look(k):
    if peek(0) > peek(1):
        push(pop() + pop())
    else:
        push(pop() - pop())
""", pop=2, push=1, peek=2)
        # peek == pop here, so this one *does* fuse; raise lookahead:
        consumer_look = Filter("""
def look3(k):
    if peek(2) > 0.0:
        push(pop() + pop())
    else:
        push(pop() - pop())
""", pop=2, push=1, peek=3)
        prog = StreamProgram(
            Pipeline(Filter(SORT2_SRC, pop=2, push=2), consumer_look),
            params=["k", "m"], input_size="2*m")
        compiled = api.compile(prog)
        assert len(compiled.segments) == 2
        _ = consumer

    def test_host_subgraph_priced_by_its_steady_states(self):
        """The host plan interprets one chain steady state per
        first-actor invocation, so its price and output size grow with
        m: it wins at m = 10 and loses to the fused kernel at 100,000."""
        compiled = api.compile(chain_program())
        seg = compiled.segments[0]
        host = seg.plan_named("cpu.subgraph")
        small, large = {"k": 0, "m": 10}, {"k": 0, "m": 100000}
        for params in (small, large):
            assert host.output_size(params) == seg.output_size(params) \
                == params["m"]
        work = [compiled.plan_seconds(host, params) - CPU_DISPATCH_SECONDS
                for params in (small, large)]
        assert work[1] == pytest.approx(10000 * work[0])
        assert [p.strategy for p in compiled.select(small)] == \
            ["cpu.subgraph"]
        assert [p.strategy for p in compiled.select(large)] == \
            ["generic.fused_chain"]

    def test_fused_saves_modeled_traffic(self):
        compiled = api.compile(chain_program())
        seg = compiled.segments[0]
        fused = seg.plan_named("generic.fused_chain")
        launches = fused.launches({"k": 0, "m": 1 << 20})
        # One kernel for the whole chain: 2 loads + 1 store per invocation,
        # not 2+2 (producer) + 2+1 (consumer).
        assert len(launches) == 1
        wl = launches[0].workload
        assert wl.mem_insts <= 3.5
