"""Horizontal actor integration for reductions (§4.3.2).

"Assume there is a program that needs maximum and summation of all elements
in an array.  Instead of running two kernels to compute these values,
Adaptic launches one kernel to compute both" — this plan reads the shared
input once and feeds every reducer in the same pass, halving (or better)
off-chip traffic and synchronization.

The reducers run side by side as one
:class:`~repro.compiler.reducers.HorizontalReducer` through the plain
reductions' single-kernel (block per array) and two-kernel (initial +
merge) launchers, so horizontal integration composes with the
input-aware choice of reduction shape.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence

import numpy as np

from ...gpu import Device, DeviceArray, GPUSpec
from ...perfmodel import KernelWorkload
from ..reducers import HorizontalReducer, Reducer
from .base import IN, KernelPlan, PlannedLaunch
from .reduceplan import (LAYOUT_ROWS, ReduceShape, launch_single_kernel,
                         launch_two_kernel)


class HorizontalReducePlan(KernelPlan):
    """One kernel computing several reductions over the same input."""

    def __init__(self, spec: GPUSpec, name: str, shape: ReduceShape,
                 reducer_fns: Sequence[Callable[[Dict], Reducer]],
                 threads: int = 256, two_kernel: bool = False):
        super().__init__(spec, name)
        if threads & (threads - 1):
            raise ValueError("threads per block must be a power of two")
        self.shape = shape
        self.reducer_fns = list(reducer_fns)
        #: The parameter-free reducer bank the cost queries price from.
        self.symbolic = HorizontalReducer([fn(None)
                                           for fn in self.reducer_fns])
        self.threads = threads
        self.two_kernel = two_kernel
        self.layout = self.input_layout = LAYOUT_ROWS
        self.strategy = ("hreduce.two_kernel" if two_kernel
                         else "hreduce.single_kernel")
        self.optimizations = ["actor_segmentation", "horizontal_integration"]

    # ------------------------------------------------------------------
    def _reducer(self, params) -> HorizontalReducer:
        # One warm-cache entry holds the whole executable reducer bank:
        # every factory may compile several element/epilogue functions,
        # so a warm run must reuse all of them at once.
        return self.cached_artifact(
            "reducers", params,
            lambda: HorizontalReducer([fn(params) for fn in self.reducer_fns]))

    def output_size(self, params) -> int:
        return self.shape.narrays(params) * self.symbolic.outputs_per_array

    def initial_blocks(self, params) -> int:
        length = self.shape.nelements(params)
        narrays = self.shape.narrays(params)
        fit = max(1, self.spec.blocks_per_sm(self.threads, 20,
                                             self.threads * 8))
        want = max(1, (self.spec.num_sms * fit) // max(1, narrays))
        max_useful = max(1, math.ceil(length / self.threads))
        return int(min(want, max_useful, 64))

    # ------------------------------------------------------------------
    def launches(self, params) -> List[PlannedLaunch]:
        narrays = self.shape.narrays(params)
        length = self.shape.nelements(params)
        k = self.shape.pops_per_iter
        reducers = self.symbolic.reducers
        width = sum(r.state_width for r in reducers)
        elem_ops = sum(r.element_ops() + r.combine_ops() for r in reducers)
        aux = sum(r.element_aux_loads() for r in reducers)
        tree_steps = int(math.log2(self.threads))
        tree_ops = sum(r.combine_ops() + 2 for r in reducers)

        if not self.two_kernel:
            iters = math.ceil(length / self.threads)
            workload = KernelWorkload(
                blocks=narrays, threads_per_block=self.threads,
                comp_insts=iters * (elem_ops + 2) + tree_steps * tree_ops,
                coal_mem_insts=iters * k + iters * aux,
                synch_insts=tree_steps + 1, regs_per_thread=18 + 2 * width,
                shared_per_block=self.threads * width * 4)
            return [PlannedLaunch(self.name, narrays, self.threads,
                                  workload)]

        nblocks = self.initial_blocks(params)
        chunk = math.ceil(length / nblocks)
        iters = math.ceil(chunk / self.threads)
        initial = KernelWorkload(
            blocks=narrays * nblocks, threads_per_block=self.threads,
            comp_insts=iters * (elem_ops + 2) + tree_steps * tree_ops,
            coal_mem_insts=iters * k + iters * aux,
            synch_insts=tree_steps + 1, regs_per_thread=18 + 2 * width,
            shared_per_block=self.threads * width * 4)
        merge_iters = math.ceil(nblocks / self.threads)
        merge = KernelWorkload(
            blocks=narrays, threads_per_block=self.threads,
            comp_insts=(merge_iters + tree_steps) * tree_ops,
            coal_mem_insts=merge_iters * width,
            synch_insts=tree_steps + 1, regs_per_thread=16,
            shared_per_block=self.threads * width * 4)
        return [
            PlannedLaunch(f"{self.name}_initial", narrays * nblocks,
                          self.threads, initial),
            PlannedLaunch(f"{self.name}_merge", narrays, self.threads,
                          merge),
        ]

    # ------------------------------------------------------------------
    def execute(self, device: Device, buffers, params) -> DeviceArray:
        reducer = self._reducer(params)
        out = device.alloc(self.output_size(params), dtype=np.float64,
                           name=f"{self.name}.out")
        if not self.two_kernel:
            launch_single_kernel(device, self, f"{self.name}_h", reducer,
                                 params, buffers[IN], out)
            return out
        nblocks = self.initial_blocks(params)
        partials = device.alloc(
            self.shape.narrays(params) * nblocks * reducer.state_width,
            dtype=np.float64, name=f"{self.name}.partials")
        launch_two_kernel(device, self, f"{self.name}_h", 20, reducer,
                          params, buffers[IN], partials, out, nblocks)
        return out

    def cuda_source(self) -> str:
        return (f"// {self.name}: horizontally integrated reduction over "
                f"{len(self.reducer_fns)} actors "
                f"({'two-kernel' if self.two_kernel else 'single-kernel'})\n")


class SeparateReducePlan(KernelPlan):
    """Non-integrated duplicate split-join: one kernel chain per branch.

    The baseline alternative to :class:`HorizontalReducePlan`: each branch
    actor reads the shared input with its own kernel(s), and the joiner's
    interleaving is applied to the branch outputs.  Every branch pays its
    own global-memory pass and launch overhead — the cost horizontal
    integration removes.
    """

    def __init__(self, spec: GPUSpec, name: str,
                 branch_plans: Sequence[KernelPlan],
                 outputs_per_branch: Sequence[int],
                 narrays: Callable[[Dict], int]):
        super().__init__(spec, name)
        self.branch_plans = list(branch_plans)
        self.outputs_per_branch = list(outputs_per_branch)
        self._narrays = narrays
        self.strategy = "hreduce.separate_kernels"
        self.optimizations = ["actor_segmentation"]

    def clear_warm_cache(self) -> None:
        super().clear_warm_cache()
        for plan in self.branch_plans:
            plan.clear_warm_cache()

    def launches(self, params) -> List[PlannedLaunch]:
        out: List[PlannedLaunch] = []
        for plan in self.branch_plans:
            out.extend(plan.launches(params))
        return out

    def predicted_seconds(self, model, params) -> float:
        return sum(plan.predicted_seconds(model, params)
                   for plan in self.branch_plans)

    def output_size(self, params) -> int:
        return int(self._narrays(params)) * sum(self.outputs_per_branch)

    def execute(self, device: Device, buffers, params) -> DeviceArray:
        narrays = int(self._narrays(params))
        branch_outputs = [plan.execute(device, buffers, params)
                          for plan in self.branch_plans]
        per_array = sum(self.outputs_per_branch)
        combined = np.empty(narrays * per_array, dtype=np.float64)
        for r in range(narrays):
            offset = 0
            for out, width in zip(branch_outputs, self.outputs_per_branch):
                combined[r * per_array + offset:
                         r * per_array + offset + width] = \
                    out.data[r * width:(r + 1) * width]
                offset += width
        return device.alloc_from(combined, name=f"{self.name}.out")

    def cuda_source(self) -> str:
        return "".join(plan.cuda_source() for plan in self.branch_plans)
