"""Fused-execution gates: vertical integration + the process-pool backend.

Two claims ride the ``fusedexec`` marker.  First, vertical integration
(§4.3.1, ``AdapticOptions.integration``, on by default) fuses a linear
chain of maps and its terminal reduction into one segment at compile
time, so a warm run launches strictly fewer kernels than the same chain
compiled without it, while staying bit-identical.  Second,
``run_many(backend="process")`` sidesteps the GIL for CPU-bound
batches: with bundle-warmed workers (counter-asserted zero expression
compiles in the pool) it must reach >=2x the threaded backend's
throughput on a multi-core host.

The process-pool benchmark records its measured numbers through the
``bench_record`` fixture; the pytest session writes them to
``BENCH_fusedexec.json`` (see ``conftest.py``).
"""

import os
import time

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

#: Large enough that per-item kernel work dominates shared-memory
#: transfer, so the process pool's parallelism is visible.
BATCH_N = 1 << 15
BATCH_ITEMS = 16
BATCH_WORKERS = 2


def _chain_program():
    return StreamProgram(
        Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                 Filter(SQUARE_SRC, pop="n", push="n"),
                 Filter(OFFSET_SRC, pop="n", push="n"),
                 Filter(SUM_SRC, pop="n", push=1)),
        params=["n", "a"], input_size="n")


def _batch_program():
    return StreamProgram(
        Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
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


class TestProcessPoolThroughput:
    def test_process_backend_2x_over_threaded(self, bench_record):
        """run_many(backend="process") vs threads, zero worker compiles.

        The throughput gate needs real parallelism, so it only applies
        on multi-core hosts; the measurement and the bundle-warmed
        zero-compile counter assertion run everywhere.
        """
        rng = np.random.default_rng(9)
        compiled = AdapticCompiler(TESLA_C2050, AdapticOptions(
            integration=False)).compile(_batch_program())
        inputs = [rng.standard_normal(BATCH_N) for _ in range(BATCH_ITEMS)]
        params = {"n": BATCH_N, "a": 1.5}
        compiled.warmup(params, options=RunOptions(exec_mode=MODE_VECTORIZED))

        started = time.perf_counter()
        threaded = compiled.run_many(inputs, params, options=RunOptions(workers=BATCH_WORKERS, exec_mode=MODE_VECTORIZED), warm=False)
        threaded_seconds = time.perf_counter() - started

        try:
            stats_before = compiled.stats.snapshot()
            # First call forks the pool and bundle-warms the workers;
            # measure the steady-state second call.
            compiled.run_many(inputs[:BATCH_WORKERS], params,
                              options=RunOptions(workers=BATCH_WORKERS, backend="process", exec_mode=MODE_VECTORIZED), warm=False)
            started = time.perf_counter()
            pooled = compiled.run_many(inputs, params,
                                       options=RunOptions(workers=BATCH_WORKERS, backend="process", exec_mode=MODE_VECTORIZED),
                                       warm=False)
            process_seconds = time.perf_counter() - started
            delta = compiled.stats.since(stats_before)
            # Bundle-warmed workers hydrate, never compile.
            assert delta.expr_compiles == 0, \
                f"process workers compiled {delta.expr_compiles} exprs"
            assert delta.expr_hydrations > 0
        finally:
            compiled.clear_warm_caches()

        for warm, cold in zip(threaded, pooled):
            assert warm.output.tobytes() == cold.output.tobytes()

        speedup = threaded_seconds / process_seconds
        bench_record(
            "fusedexec", "process_pool",
            n=BATCH_N,
            items=BATCH_ITEMS,
            workers=BATCH_WORKERS,
            cpus=os.cpu_count(),
            threaded_items_per_s=BATCH_ITEMS / threaded_seconds,
            process_items_per_s=BATCH_ITEMS / process_seconds,
            speedup=speedup,
        )
        if (os.cpu_count() or 1) >= 2:
            assert speedup >= 2.0, \
                f"process backend only {speedup:.2f}x over threaded " \
                f"({threaded_seconds * 1e3:.1f}ms vs " \
                f"{process_seconds * 1e3:.1f}ms)"
