"""Horizontal actor integration for reductions (§4.3.2).

"Assume there is a program that needs maximum and summation of all elements
in an array.  Instead of running two kernels to compute these values,
Adaptic launches one kernel to compute both" — this plan reads the shared
input once and feeds every reducer in the same pass, halving (or better)
off-chip traffic and synchronization.

Both the single-kernel (block per array) and two-kernel (initial + merge)
reduction structures are supported, so horizontal integration composes with
the input-aware choice of reduction shape.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence

import numpy as np

from ...gpu import SYNC, Device, DeviceArray, GPUSpec, Kernel
from ...perfmodel import KernelWorkload
from ..reducers import Reducer
from .base import IN, KernelPlan, PlannedLaunch
from .reduceplan import (LAYOUT_ROWS, ReduceShape, _index_fn, _select_state,
                         _vector_tree)


class HorizontalReducePlan(KernelPlan):
    """One kernel computing several reductions over the same input."""

    def __init__(self, spec: GPUSpec, name: str, shape: ReduceShape,
                 reducer_fns: Sequence[Callable[[Dict], Reducer]],
                 threads: int = 256, two_kernel: bool = False,
                 layout: str = LAYOUT_ROWS):
        super().__init__(spec, name)
        if threads & (threads - 1):
            raise ValueError("threads per block must be a power of two")
        self.shape = shape
        self.reducer_fns = list(reducer_fns)
        self.threads = threads
        self.two_kernel = two_kernel
        self.layout = layout
        self.input_layout = layout
        self.strategy = ("hreduce.two_kernel" if two_kernel
                         else "hreduce.single_kernel")
        self.optimizations = ["actor_segmentation", "horizontal_integration"]

    # ------------------------------------------------------------------
    def _reducers(self, params) -> List[Reducer]:
        # One warm-cache entry holds the whole reducer bank: every factory
        # may compile several element/epilogue functions, so a warm run
        # must reuse all of them at once.
        return self.cached_artifact(
            "reducers", params,
            lambda: [fn(params) for fn in self.reducer_fns])

    def output_size(self, params) -> int:
        reducers = self._reducers(params)
        per_array = sum(r.outputs_per_array for r in reducers)
        return self.shape.narrays(params) * per_array

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
        reducers = self._reducers(params)
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
        narrays = self.shape.narrays(params)
        length = self.shape.nelements(params)
        k = self.shape.pops_per_iter
        reducers = self._reducers(params)
        addr = _index_fn(self.layout, self.shape, params)
        threads = self.threads
        tree_steps = int(math.log2(threads))
        per_array = sum(r.outputs_per_array for r in reducers)
        out = device.alloc(self.output_size(params), dtype=np.float64,
                           name=f"{self.name}.out")
        inbuf = buffers[IN]
        widths = [r.state_width for r in reducers]
        Q = len(reducers)

        def slot(q: int, w: int) -> str:
            return f"s{q}_{w}"

        shared = {slot(q, w): (threads, np.float64)
                  for q in range(Q) for w in range(widths[q])}
        groups = [(red, [slot(q, w) for w in range(widths[q])])
                  for q, red in enumerate(reducers)]

        def reduce_block(ctx, r, lo, hi, write_partial=None):
            """Strided read + tree reduction for all reducers at once."""
            states = [red.identity() for red in reducers]
            i = lo + ctx.tx
            while i < hi:
                vals = [ctx.gload(inbuf, addr(r, i, j)) for j in range(k)]
                for q, red in enumerate(reducers):
                    states[q] = red.combine(states[q], red.element(vals, i))
                i += threads
            for q in range(Q):
                for w in range(widths[q]):
                    ctx.sstore(slot(q, w), ctx.tx, states[q][w])
            yield SYNC
            active = threads // 2
            for _step in range(tree_steps):
                if ctx.tx < active:
                    for q, red in enumerate(reducers):
                        a = tuple(ctx.sload(slot(q, w), ctx.tx)
                                  for w in range(widths[q]))
                        b = tuple(ctx.sload(slot(q, w), ctx.tx + active)
                                  for w in range(widths[q]))
                        merged = red.combine(a, b)
                        for w in range(widths[q]):
                            ctx.sstore(slot(q, w), ctx.tx, merged[w])
                yield SYNC
                active //= 2
            if ctx.tx == 0:
                finals = [tuple(ctx.sload(slot(q, w), 0)
                                for w in range(widths[q]))
                          for q in range(Q)]
                if write_partial is not None:
                    write_partial(finals)
                else:
                    offset = 0
                    for q, red in enumerate(reducers):
                        for value in red.epilogue(finals[q]):
                            ctx.gstore(out, r * per_array + offset, value)
                            offset += 1

        def vreduce_block(ctx, r, lo, hi, steps, write_partial=None):
            """Vector mirror of ``reduce_block`` (same per-lane sequences)."""
            tx = ctx.tx
            states = [red.videntity(ctx.shape) for red in reducers]
            for s in range(steps):
                i = lo + tx + s * threads
                m = i < hi
                if not np.any(m):
                    break
                vals = [ctx.gload(inbuf, addr(r, i, j), m)
                        for j in range(k)]
                safe_i = np.where(m, i, 0)
                for q, red in enumerate(reducers):
                    states[q] = _select_state(
                        m,
                        red.vcombine(states[q], red.velement(vals, safe_i)),
                        states[q])
            for q in range(Q):
                for w in range(widths[q]):
                    ctx.sstore(slot(q, w), tx, states[q][w])
            ctx.sync()
            lane0, finals = _vector_tree(ctx, groups)
            if write_partial is not None:
                write_partial(lane0, finals)
            else:
                offset = 0
                for q, red in enumerate(reducers):
                    for value in red.vepilogue(finals[q]):
                        lane0.gstore(out, r * per_array + offset, value)
                        offset += 1

        if not self.two_kernel:
            def body(ctx):
                yield from reduce_block(ctx, ctx.bx, 0, length)

            single_steps = math.ceil(length / threads) if length else 0

            def vector_body(ctx):
                vreduce_block(ctx, ctx.bx, 0, length, single_steps)

            device.launch(Kernel(f"{self.name}_h", body, 18, shared,
                                 vector_body=vector_body),
                          narrays, threads, {"in": inbuf, "out": out})
            return out

        nblocks = self.initial_blocks(params)
        chunk = math.ceil(length / nblocks)
        total_width = sum(widths)
        partials = device.alloc(narrays * nblocks * total_width,
                                dtype=np.float64,
                                name=f"{self.name}.partials")

        def initial_body(ctx):
            r, c = divmod(ctx.bx, nblocks)
            lo = c * chunk
            hi = min(length, lo + chunk)

            def write(finals):
                offset = 0
                for q in range(Q):
                    for w in range(widths[q]):
                        ctx.gstore(
                            partials,
                            ((offset + w) * narrays + r) * nblocks + c,
                            finals[q][w])
                    offset += widths[q]

            yield from reduce_block(ctx, r, lo, hi, write_partial=write)

        def merge_body(ctx):
            r = ctx.bx
            states = [red.identity() for red in reducers]
            c = ctx.tx
            while c < nblocks:
                offset = 0
                for q, red in enumerate(reducers):
                    part = tuple(
                        ctx.gload(partials,
                                  ((offset + w) * narrays + r) * nblocks + c)
                        for w in range(widths[q]))
                    states[q] = red.combine(states[q], part)
                    offset += widths[q]
                c += threads
            for q in range(Q):
                for w in range(widths[q]):
                    ctx.sstore(slot(q, w), ctx.tx, states[q][w])
            yield SYNC
            active = threads // 2
            for _step in range(tree_steps):
                if ctx.tx < active:
                    for q, red in enumerate(reducers):
                        a = tuple(ctx.sload(slot(q, w), ctx.tx)
                                  for w in range(widths[q]))
                        b = tuple(ctx.sload(slot(q, w), ctx.tx + active)
                                  for w in range(widths[q]))
                        merged = red.combine(a, b)
                        for w in range(widths[q]):
                            ctx.sstore(slot(q, w), ctx.tx, merged[w])
                yield SYNC
                active //= 2
            if ctx.tx == 0:
                offset = 0
                for q, red in enumerate(reducers):
                    final = tuple(ctx.sload(slot(q, w), 0)
                                  for w in range(widths[q]))
                    for value in red.epilogue(final):
                        ctx.gstore(out, r * per_array + offset, value)
                        offset += 1

        acc_steps = math.ceil(chunk / threads) if chunk else 0
        merge_steps = math.ceil(nblocks / threads)

        def initial_vector(ctx):
            r = ctx.bx // nblocks
            c = ctx.bx % nblocks
            lo = c * chunk
            hi = np.minimum(length, lo + chunk)

            def write(lane0, finals):
                offset = 0
                for q in range(Q):
                    for w in range(widths[q]):
                        lane0.gstore(
                            partials,
                            ((offset + w) * narrays + r) * nblocks + c,
                            finals[q][w])
                    offset += widths[q]

            vreduce_block(ctx, r, lo, hi, acc_steps, write_partial=write)

        def merge_vector(ctx):
            tx = ctx.tx
            r = ctx.bx
            states = [red.videntity(ctx.shape) for red in reducers]
            for s in range(merge_steps):
                c = tx + s * threads
                m = c < nblocks
                if not np.any(m):
                    break
                offset = 0
                for q, red in enumerate(reducers):
                    part = tuple(
                        ctx.gload(partials,
                                  ((offset + w) * narrays + r) * nblocks + c,
                                  m)
                        for w in range(widths[q]))
                    states[q] = _select_state(
                        m, red.vcombine(states[q], part), states[q])
                    offset += widths[q]
            for q in range(Q):
                for w in range(widths[q]):
                    ctx.sstore(slot(q, w), tx, states[q][w])
            ctx.sync()
            lane0, finals = _vector_tree(ctx, groups)
            offset = 0
            for q, red in enumerate(reducers):
                for value in red.vepilogue(finals[q]):
                    lane0.gstore(out, r * per_array + offset, value)
                    offset += 1

        device.launch(Kernel(f"{self.name}_h_initial", initial_body, 20,
                             shared, vector_body=initial_vector),
                      narrays * nblocks, threads, {"in": inbuf})
        device.launch(Kernel(f"{self.name}_h_merge", merge_body, 16, shared,
                             vector_body=merge_vector),
                      narrays, threads, {})
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
