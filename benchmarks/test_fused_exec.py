"""Fused-execution gates: chain fusion + the process-pool backend.

Two claims ride the ``fusedexec`` marker.  First, whole-segment-chain
fusion (``AdapticOptions.fuse_chains``) collapses a linear run of map
segments into one emitted kernel, so a warm run launches strictly fewer
kernels than the unfused plan while staying bit-identical.  Second,
``run_many(backend="process")`` sidesteps the GIL for CPU-bound
batches: with bundle-warmed workers (counter-asserted zero expression
compiles in the pool) it must reach >=2x the threaded backend's
throughput on a multi-core host.

Both benchmarks record their measured numbers through the
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

#: Small enough that per-launch overhead dominates the chain — the
#: regime the fusion cost model targets.
CHAIN_N = 1 << 10
CHAIN_REPEATS = 40

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


class TestFusedChainThroughput:
    def test_fused_warm_runs_beat_unfused(self, bench_record):
        """Fused chain: fewer launches, bit-identical, measured speedup."""
        rng = np.random.default_rng(21)
        data = rng.standard_normal(CHAIN_N)
        params = {"n": CHAIN_N, "a": 1.25}
        # integration=False keeps the three maps as separate segments so
        # chain fusion (not pattern fusion) is what gets measured.
        plain = AdapticCompiler(TESLA_C2050, AdapticOptions(
            integration=False)).compile(_chain_program())
        fused = AdapticCompiler(TESLA_C2050, AdapticOptions(
            integration=False, fuse_chains=True,
            fuse_min_gain=0.0)).compile(_chain_program())

        baseline = plain.run(data, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        result = fused.run(data, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        assert result.output.tobytes() == baseline.output.tobytes()
        assert fused.stats.fused_chain_runs == 1

        started = time.perf_counter()
        for _ in range(CHAIN_REPEATS):
            plain.run(data, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        plain_seconds = time.perf_counter() - started

        started = time.perf_counter()
        for _ in range(CHAIN_REPEATS):
            fused.run(data, params, options=RunOptions(exec_mode=MODE_VECTORIZED))
        fused_seconds = time.perf_counter() - started

        assert fused.stats.fused_chain_runs == 1 + CHAIN_REPEATS
        pdev = plain._run_devices[MODE_VECTORIZED]
        fdev = fused._run_devices[MODE_VECTORIZED]
        # The accounting fusion exists to create: one launch per chain.
        assert fdev.launch_count < pdev.launch_count

        bench_record(
            "fusedexec", "fused_chain",
            n=CHAIN_N,
            repeats=CHAIN_REPEATS,
            unfused_runs_per_s=CHAIN_REPEATS / plain_seconds,
            fused_runs_per_s=CHAIN_REPEATS / fused_seconds,
            speedup=plain_seconds / fused_seconds,
            unfused_launches=pdev.launch_count,
            fused_launches=fdev.launch_count,
        )


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
