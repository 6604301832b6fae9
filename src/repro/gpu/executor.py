"""Functional SIMT executor.

Executes a :class:`~repro.gpu.kernel.Kernel` over a grid with CUDA block /
barrier semantics.  Two execution modes share one entry point:

* **reference** (default) — blocks are independent and executed one after
  another; within a block every thread runs as a coroutine; at each
  ``__syncthreads()`` (a ``yield`` in the body) the executor parks the
  thread and resumes it only after all live threads of the block reached
  the same barrier.  This is the semantics oracle.
* **vectorized** — kernels that carry a ``vector_body`` (whole-grid numpy
  implementation, emitted by the plan layer for barrier-free or
  warp-synchronous bodies) execute array-at-a-time via
  :class:`~repro.gpu.vectorized.VectorCtx`; tracing runs on address arrays
  and reports identical :class:`LaunchStats`.  Kernels without a vector
  body (or with multi-dimensional launches) fall back to the reference
  interpreter — the mode is a fast path, never a semantics change.

The executor checks the CUDA rule that a barrier must be reached by all
threads of the block or by none (divergent barriers raise
:class:`BarrierDivergenceError`).

This component establishes *functional correctness* of generated kernels;
execution *time* comes from :mod:`repro.perfmodel`, which is the same split
the paper uses (nvcc executes, the Hong & Kim model predicts).
"""

from __future__ import annotations

import dataclasses
from types import GeneratorType
from typing import Any, Dict, Optional

import numpy as np

from ..errors import KernelExecutionError
from .arch import GPUSpec
from .kernel import (Dim3, Kernel, LaunchConfig, ThreadCtx,
                     kernel_uses_barriers)
from .memory import MemoryTracer, SharedMemory
from .vectorized import (EXEC_MODES, ExecMode, MODE_REFERENCE,
                         MODE_VECTORIZED, VectorCtx, VectorTracer)


class LaunchError(KernelExecutionError):
    """Invalid launch configuration (e.g. block larger than the target allows)."""


class BarrierDivergenceError(KernelExecutionError):
    """Some threads of a block reached ``__syncthreads`` and others exited."""


@dataclasses.dataclass
class LaunchStats:
    """Observed execution statistics of one launch (tracing enabled)."""

    kernel: str
    grid: Dim3
    block: Dim3
    shared_bytes_per_block: int
    global_transactions: int = 0
    global_requests: int = 0
    coalesced_fraction: float = 1.0
    shared_bank_conflicts: int = 0
    barriers: int = 0

    @property
    def transactions_per_request(self) -> float:
        if self.global_requests == 0:
            return 0.0
        return self.global_transactions / self.global_requests


class Executor:
    """Runs kernels functionally against a :class:`GPUSpec`'s limits."""

    def __init__(self, spec: GPUSpec,
                 default_mode: ExecMode = MODE_REFERENCE):
        self.spec = spec
        self.default_mode = default_mode
        self.reference_launches = 0
        self.vectorized_launches = 0
        self.vector_fallbacks = 0
        self.fused_chain_launches = 0

    # ------------------------------------------------------------------
    def launch_fused_chain(self, fn, arrays) -> None:
        """Run one emitted fused-chain kernel over its stage buffers.

        ``fn`` is a whole-array function from
        :func:`~repro.compiler.exprgen.compile_chain_fn`; ``arrays`` are
        the raw ndarrays it threads (source, intermediates, output).
        Mirrors the vectorized path's floating-point environment so a
        fused chain is bit-identical to the per-segment launches it
        replaces.
        """
        self.fused_chain_launches += 1
        with np.errstate(all="ignore"):
            fn(*arrays)

    # ------------------------------------------------------------------
    def launch(self, kernel: Kernel, config: LaunchConfig,
               args: Dict[str, Any], trace: bool = False,
               mode: Optional[ExecMode] = None) -> Optional[LaunchStats]:
        """Execute ``kernel`` over ``config`` with ``args``.

        Mutates the :class:`DeviceArray` arguments in place, exactly like a
        real launch.  With ``trace=True`` returns memory-system statistics.
        ``mode`` selects the execution path (defaults to the executor's
        ``default_mode``); the vectorized mode silently falls back to the
        reference interpreter when the kernel has no vector body.
        """
        mode = mode or self.default_mode
        if mode not in EXEC_MODES:
            raise LaunchError(
                f"unknown execution mode {mode!r}; expected one of "
                f"{[m.value for m in EXEC_MODES]}")
        block = config.block
        grid = config.grid
        if block.count == 0 or grid.count == 0:
            raise LaunchError("empty grid or block")
        if block.count > self.spec.max_threads_per_block:
            raise LaunchError(
                f"{block.count} threads/block exceeds "
                f"{self.spec.name} limit {self.spec.max_threads_per_block}")

        shared_spec = kernel.shared_for(args, block)
        shared_bytes = kernel.shared_bytes(args, block)
        if shared_bytes > self.spec.max_shared_mem_per_block:
            raise LaunchError(
                f"{shared_bytes} B shared/block exceeds "
                f"{self.spec.name} limit "
                f"{self.spec.max_shared_mem_per_block}")

        if mode == MODE_VECTORIZED:
            if kernel.vector_body is not None and self._vectorizable(config):
                self.vectorized_launches += 1
                return self._launch_vectorized(
                    kernel, config, args, trace, shared_spec, shared_bytes)
            self.vector_fallbacks += 1

        self.reference_launches += 1
        return self._launch_reference(
            kernel, config, args, trace, shared_spec, shared_bytes)

    @staticmethod
    def _vectorizable(config: LaunchConfig) -> bool:
        return (config.grid.y == config.grid.z == 1
                and config.block.y == config.block.z == 1)

    # ------------------------------------------------------------------
    def _launch_reference(self, kernel, config, args, trace,
                          shared_spec, shared_bytes):
        block, grid = config.block, config.grid
        tracer = MemoryTracer() if trace else None
        uses_barriers = kernel_uses_barriers(kernel)
        barriers = 0

        for blin in range(grid.count):
            bz, rem = divmod(blin, grid.y * grid.x)
            by, bx = divmod(rem, grid.x)
            smem = SharedMemory(
                {name: (size, dtype)
                 for name, (size, dtype) in shared_spec.items()})
            ctxs = []
            for tlin in range(block.count):
                tz, trem = divmod(tlin, block.y * block.x)
                ty, tx = divmod(trem, block.x)
                ctxs.append(ThreadCtx(tx, ty, tz, bx, by, bz, block, grid,
                                      args, smem, tracer, blin, tlin))
            if uses_barriers:
                barriers += self._run_block_with_barriers(kernel, ctxs)
            else:
                for ctx in ctxs:
                    result = kernel.body(ctx)
                    if isinstance(result, GeneratorType):
                        raise LaunchError(
                            f"kernel {kernel.name!r} was classified "
                            "barrier-free but its body returned a "
                            "generator; set kernel.meta['barriers']=True "
                            "or unwrap the body")

        if tracer is None:
            return None
        stats = LaunchStats(
            kernel=kernel.name, grid=grid, block=block,
            shared_bytes_per_block=shared_bytes, barriers=barriers)
        stats.global_transactions = tracer.global_transactions(
            self.spec.warp_size, self.spec.coalesced_bytes_per_txn)
        stats.global_requests = tracer.global_requests(self.spec.warp_size)
        stats.coalesced_fraction = tracer.coalesced_fraction(
            self.spec.warp_size, self.spec.coalesced_bytes_per_txn)
        stats.shared_bank_conflicts = tracer.shared_bank_conflicts(
            self.spec.warp_size, self.spec.shared_mem_banks)
        return stats

    # ------------------------------------------------------------------
    def _launch_vectorized(self, kernel, config, args, trace,
                           shared_spec, shared_bytes):
        tracer = VectorTracer(self.spec) if trace else None
        ctx = VectorCtx(config.grid, config.block, args, shared_spec, tracer)
        with np.errstate(all="ignore"):
            kernel.vector_body(ctx)
        if tracer is None:
            return None
        tracer.finalize()
        stats = LaunchStats(
            kernel=kernel.name, grid=config.grid, block=config.block,
            shared_bytes_per_block=shared_bytes, barriers=ctx.barriers)
        stats.global_transactions = tracer.global_transactions
        stats.global_requests = tracer.global_requests
        stats.coalesced_fraction = tracer.coalesced_fraction
        stats.shared_bank_conflicts = tracer.shared_bank_conflicts
        return stats

    # ------------------------------------------------------------------
    def _run_block_with_barriers(self, kernel: Kernel, ctxs) -> int:
        """Advance all threads of one block phase-by-phase between barriers."""
        threads = [kernel.body(ctx) for ctx in ctxs]
        for t in threads:
            if not isinstance(t, GeneratorType):
                raise LaunchError(
                    f"kernel {kernel.name!r} was classified as using "
                    "barriers but its body did not return a generator; "
                    "set kernel.meta['barriers']=False or fix the body")
        live = list(range(len(threads)))
        barriers = 0
        while live:
            arrived = []
            finished = []
            for idx in live:
                try:
                    next(threads[idx])
                except StopIteration:
                    finished.append(idx)
                else:
                    arrived.append(idx)
            if arrived and finished:
                raise BarrierDivergenceError(
                    f"kernel {kernel.name!r}: {len(arrived)} thread(s) at a "
                    f"__syncthreads barrier while {len(finished)} exited")
            if arrived:
                barriers += 1
            live = arrived
        return barriers
