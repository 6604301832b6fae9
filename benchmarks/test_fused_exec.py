"""Fused-execution gate: vertical integration launches fewer kernels.

Vertical integration (§4.3.1, ``AdapticOptions.integration``, on by
default) fuses a linear chain of maps and its terminal reduction into one
segment at compile time, so a warm run launches strictly fewer kernels
than the same chain compiled without it, while staying bit-identical.
"""

import numpy as np
import pytest

from repro.compiler import AdapticCompiler, AdapticOptions
from repro.gpu import MODE_VECTORIZED, TESLA_C2050
from repro.streamit import Filter, Pipeline, StreamProgram
from repro.compiler import RunOptions

pytestmark = pytest.mark.fusedexec

SCALE_SRC = """
def scale(n, a):
    for i in range(n):
        push(a * pop())
"""

SQUARE_SRC = """
def square(n):
    for i in range(n):
        x = pop()
        push(x * x + 0.5)
"""

OFFSET_SRC = """
def offset(n):
    for i in range(n):
        push(pop() + 1.0)
"""

SUM_SRC = """
def total(n):
    acc = 0.0
    for i in range(n):
        acc = acc + pop()
    push(acc)
"""

CHAIN_N = 1 << 10


def _chain_program():
    return StreamProgram(
        Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                 Filter(SQUARE_SRC, pop="n", push="n"),
                 Filter(OFFSET_SRC, pop="n", push="n"),
                 Filter(SUM_SRC, pop="n", push=1)),
        params=["n", "a"], input_size="n")


class TestFusedChainLaunches:
    def test_integrated_chain_launches_fewer_kernels(self):
        """scale -> square -> offset -> sum: with vertical integration
        the chain is one segment, without it four; the outputs are
        bit-identical."""
        rng = np.random.default_rng(21)
        data = rng.standard_normal(CHAIN_N)
        params = {"n": CHAIN_N, "a": 1.25}
        options = RunOptions(exec_mode=MODE_VECTORIZED)
        separate = AdapticCompiler(TESLA_C2050, AdapticOptions(
            integration=False)).compile(_chain_program())
        integrated = AdapticCompiler(TESLA_C2050, AdapticOptions()) \
            .compile(_chain_program())
        assert len(integrated.segments) < len(separate.segments)

        baseline = separate.run(data, params, options=options)
        result = integrated.run(data, params, options=options)
        assert result.output.tobytes() == baseline.output.tobytes()
        assert "vertical_integration" in result.selections[0].optimizations
        launches = [program._run_devices[MODE_VECTORIZED].launch_count
                    for program in (integrated, separate)]
        assert launches[0] < launches[1], launches
