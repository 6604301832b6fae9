"""Stream-reduction kernel plans (§4.2.1, Figures 7 and 8).

A reduction segment computes ``narrays`` independent reductions, each over
``nelements`` iterations consuming ``pops_per_iter`` stream elements.  The
paper generates different kernel structures depending on how ``nelements``
compares with ``narrays``; together with horizontal thread integration
(§4.3.2) these are exactly the five TMV kernels of §5.2.1:

* :class:`ReduceTwoKernelPlan` — initial + merge kernels; the whole GPU
  reduces each array (best for few, long arrays);
* :class:`ReduceSingleKernelPlan` (``rows_per_block=1``) — one block per
  array (best near-square);
* :class:`ReduceSingleKernelPlan` (``rows_per_block=R``) — horizontal
  thread integration merges several arrays per block (more rows than
  columns);
* :class:`ReduceSingleKernelPlan` (``outputs_per_thread=True``) — the
  shared-memory phase computes one output per thread;
* :class:`ReduceThreadPerArrayPlan` — one thread per array (many tiny
  rows); with the transposed layout from memory restructuring its loads
  are fully coalesced.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...gpu import SYNC, Device, DeviceArray, GPUSpec, Kernel
from ...perfmodel import KernelWorkload
from ..reducers import Reducer
from .base import IN, KernelPlan, PlannedLaunch, freeze_scalars

#: Input layouts understood by reduction plans.
LAYOUT_ROWS = "rows"            # canonical: array r contiguous, iterations AoS
LAYOUT_ROW_SOA = "row_soa"      # within each array, pop-components SoA
LAYOUT_TRANSPOSED = "transposed"  # element-major across arrays


class ReduceShape:
    """Segment geometry: how many arrays, how long each one is.

    Both counts come from rate expressions whose evaluation is pure in
    the scalar params, so they are memoized per frozen-scalar binding —
    the warm serving path asks for them on every run.
    """

    def __init__(self, narrays: Callable[[Dict], int],
                 nelements: Callable[[Dict], int], pops_per_iter: int):
        self._narrays = narrays
        self._nelements = nelements
        self.pops_per_iter = pops_per_iter
        self._memo: Dict[tuple, Tuple[int, int]] = {}

    def _counts(self, params) -> Tuple[int, int]:
        key = freeze_scalars(params)
        counts = self._memo.get(key)
        if counts is None:
            counts = (int(self._narrays(params)),
                      int(self._nelements(params)))
            self._memo[key] = counts
        return counts

    def narrays(self, params) -> int:
        return self._counts(params)[0]

    def nelements(self, params) -> int:
        return self._counts(params)[1]

    def input_size(self, params) -> int:
        return (self.narrays(params) * self.nelements(params)
                * self.pops_per_iter)


def _index_fn(layout: str, shape: ReduceShape, params):
    """Address of pop component ``j`` of iteration ``i`` of array ``r``."""
    length = shape.nelements(params)
    k = shape.pops_per_iter
    narrays = shape.narrays(params)
    if layout == LAYOUT_ROWS:
        return lambda r, i, j: (r * length + i) * k + j
    if layout == LAYOUT_ROW_SOA:
        return lambda r, i, j: r * length * k + j * length + i
    if layout == LAYOUT_TRANSPOSED:
        return lambda r, i, j: (i * k + j) * narrays + r
    raise ValueError(f"unknown reduction layout {layout!r}")


def _select_state(mask, new, old):
    """Lane-wise pick of reducer state tuples (arrays) by ``mask``."""
    return tuple(np.where(mask, n, o) for n, o in zip(new, old))


def _vector_tree(ctx, groups, rows=None):
    """Vector body of the shared-memory tree reduction and its read-back.

    ``groups`` pairs each reducer with the shared names of its state
    words; ``rows`` (``(blocks, 1)`` or None) masks off blocks with no
    row.  Each step runs on its live lanes, ``ctx.lanes(active)``, so a
    block does ``threads - 1`` lane combines, not ``threads`` per step.
    Returns lane 0's view and each group's reduced state read through it.
    """
    active = ctx.threads // 2
    while active:
        live = ctx.lanes(active)
        tx = live.tx
        for reducer, names in groups:
            a = tuple(live.sload(name, tx, rows) for name in names)
            b = tuple(live.sload(name, tx + active, rows) for name in names)
            for name, value in zip(names, reducer.vcombine(a, b)):
                live.sstore(name, tx, value, rows)
        live.sync()
        active //= 2
    lane0 = ctx.lanes(1)
    return lane0, [tuple(lane0.sload(name, 0, rows) for name in names)
                   for _, names in groups]


def restructure_host(data: np.ndarray, layout: str, shape: ReduceShape,
                     params) -> np.ndarray:
    """CPU-side memory restructuring (§4.1.1) into the plan's layout."""
    narrays = shape.narrays(params)
    length = shape.nelements(params)
    k = shape.pops_per_iter
    data = np.asarray(data).reshape(narrays, length, k)
    if layout == LAYOUT_ROWS:
        return data.reshape(-1)
    if layout == LAYOUT_ROW_SOA:
        return data.transpose(0, 2, 1).reshape(-1)
    if layout == LAYOUT_TRANSPOSED:
        return data.reshape(narrays, length * k).T.reshape(-1)
    raise ValueError(f"unknown reduction layout {layout!r}")


class _ReducePlanBase(KernelPlan):
    """Shared machinery for reduction plans."""

    def __init__(self, spec: GPUSpec, name: str, shape: ReduceShape,
                 reducer_fn: Callable[[Dict], Reducer],
                 layout: str = LAYOUT_ROWS, threads: int = 256):
        super().__init__(spec, name)
        if threads & (threads - 1):
            raise ValueError("threads per block must be a power of two")
        self.shape = shape
        self.reducer_fn = reducer_fn
        self.layout = layout
        self.threads = threads
        self.input_layout = layout

    def _reducer(self, params):
        """Reducer for this binding, compiled once and reused warm.

        ``reducer_fn`` may compile several element/epilogue functions per
        call (e.g. :class:`~repro.compiler.reducers.ScalarReducer`); the
        per-plan artifact cache keys on scalars *and* auxiliary-array
        identity, so bindings that carry different const arrays never share
        a reducer.
        """
        return self.cached_artifact("reducer", params,
                                    lambda: self.reducer_fn(params))

    def output_size(self, params) -> int:
        reducer = self._reducer(params)
        return self.shape.narrays(params) * reducer.outputs_per_array

    def restructure_permutation(self, size, params):
        if self.layout == LAYOUT_ROWS:
            return None
        return restructure_host(np.arange(size), self.layout, self.shape,
                                params)

    # -- workload helpers -------------------------------------------------
    def _mem_split(self, requests: float):
        """Split per-warp load requests into (coalesced, uncoalesced, degree)."""
        k = self.shape.pops_per_iter
        if self.layout == LAYOUT_ROWS and k > 1:
            return 0.0, requests, float(min(k, 32))
        return requests, 0.0, 32.0


class ReduceSingleKernelPlan(_ReducePlanBase):
    """One block per array (or per ``rows_per_block`` arrays).

    Figure 7(b): each block reduces its array from global memory into
    shared memory, then tree-reduces the shared slots; thread 0 applies the
    epilogue and writes the result.
    """

    def __init__(self, spec, name, shape, reducer_fn,
                 layout=LAYOUT_ROWS, threads=256, rows_per_block: int = 1):
        super().__init__(spec, name, shape, reducer_fn, layout, threads)
        self.rows_per_block = rows_per_block
        self.strategy = ("reduce.single_kernel" if rows_per_block == 1
                         else f"reduce.rows_merged[{rows_per_block}]")
        if layout != LAYOUT_ROWS:
            self.strategy += f"+{layout}"
        self.optimizations = ["actor_segmentation"]
        if rows_per_block > 1:
            self.optimizations.append("horizontal_integration")
        if layout != LAYOUT_ROWS:
            self.optimizations.append("memory_restructuring")

    # -- modeling ---------------------------------------------------------
    def launches(self, params) -> List[PlannedLaunch]:
        narrays = self.shape.narrays(params)
        length = self.shape.nelements(params)
        k = self.shape.pops_per_iter
        reducer = self._reducer(params)
        blocks = max(1, math.ceil(narrays / self.rows_per_block))
        iters_per_thread = math.ceil(length / self.threads)
        requests = iters_per_thread * k * self.rows_per_block
        coal, uncoal, degree = self._mem_split(requests)
        tree_steps = int(math.log2(self.threads))
        comp = (iters_per_thread * (reducer.element_ops() + 2)
                + tree_steps * (reducer.combine_ops() + 2)
                ) * self.rows_per_block
        aux = (iters_per_thread * reducer.element_aux_loads()
               * self.rows_per_block)
        shared = self.threads * reducer.state_width * 4
        workload = KernelWorkload(
            blocks=blocks, threads_per_block=self.threads,
            comp_insts=comp, coal_mem_insts=coal + aux,
            uncoal_mem_insts=uncoal, uncoal_degree=degree,
            synch_insts=(tree_steps + 1) * self.rows_per_block,
            regs_per_thread=18, shared_per_block=shared)
        return [PlannedLaunch(self.name, blocks, self.threads, workload)]

    # -- execution ----------------------------------------------------------
    def execute(self, device: Device, buffers, params) -> DeviceArray:
        narrays = self.shape.narrays(params)
        length = self.shape.nelements(params)
        k = self.shape.pops_per_iter
        reducer = self._reducer(params)
        addr = _index_fn(self.layout, self.shape, params)
        out = device.alloc(self.output_size(params), dtype=np.float64,
                           name=f"{self.name}.out")
        threads = self.threads
        rows_per_block = self.rows_per_block
        width = reducer.state_width
        out_w = reducer.outputs_per_array
        tree_steps = int(math.log2(threads))
        inbuf = buffers[IN]

        def body(ctx):
            for rr in range(rows_per_block):
                r = ctx.bx * rows_per_block + rr
                in_range = r < narrays
                if in_range:
                    state = reducer.identity()
                    i = ctx.tx
                    while i < length:
                        vals = [ctx.gload(inbuf, addr(r, i, j))
                                for j in range(k)]
                        state = reducer.combine(state,
                                                reducer.element(vals, i))
                        i += threads
                    for w in range(width):
                        ctx.sstore(f"s{w}", ctx.tx, state[w])
                yield SYNC
                active = threads // 2
                for _step in range(tree_steps):
                    if in_range and ctx.tx < active:
                        a = tuple(ctx.sload(f"s{w}", ctx.tx)
                                  for w in range(width))
                        b = tuple(ctx.sload(f"s{w}", ctx.tx + active)
                                  for w in range(width))
                        merged = reducer.combine(a, b)
                        for w in range(width):
                            ctx.sstore(f"s{w}", ctx.tx, merged[w])
                    yield SYNC
                    active //= 2
                if in_range and ctx.tx == 0:
                    final = tuple(ctx.sload(f"s{w}", 0)
                                  for w in range(width))
                    for m, value in enumerate(reducer.epilogue(final)):
                        ctx.gstore(out, r * out_w + m, value)

        acc_steps = math.ceil(length / threads) if length else 0
        blocks = max(1, math.ceil(narrays / rows_per_block))
        names = [f"s{w}" for w in range(width)]

        def vector_body(ctx):
            tx = ctx.tx
            for rr in range(rows_per_block):
                r = ctx.bx * rows_per_block + rr
                in_range = np.broadcast_to(r < narrays, ctx.shape)
                # No row mask when every block has row rr (always, with
                # one row per block).
                rows = (None if (blocks - 1) * rows_per_block + rr < narrays
                        else r < narrays)
                state = reducer.videntity(ctx.shape)
                for s in range(acc_steps):
                    i = tx + s * threads
                    m = in_range & (i < length)
                    if not m.any():
                        break
                    vals = [ctx.gload(inbuf, addr(r, i, j), m)
                            for j in range(k)]
                    safe_i = np.where(m, i, 0)
                    state = _select_state(
                        m,
                        reducer.vcombine(state,
                                         reducer.velement(vals, safe_i)),
                        state)
                for name, value in zip(names, state):
                    ctx.sstore(name, tx, value, rows)
                ctx.sync()
                lane0, (final,) = _vector_tree(ctx, [(reducer, names)], rows)
                for m_out, value in enumerate(reducer.vepilogue(final)):
                    lane0.gstore(out, r * out_w + m_out, value, rows)

        kernel = Kernel(
            f"{self.name}_single", body, regs_per_thread=18,
            shared_spec={name: (threads, np.float64) for name in names},
            vector_body=vector_body)
        device.launch(kernel, blocks, threads, {"in": inbuf, "out": out})
        return out

    # -- CUDA emission ----------------------------------------------------
    def cuda_source(self) -> str:
        reducer = self.reducer_fn(None)
        return _single_kernel_cuda(self.name, reducer, self.threads,
                                   self.rows_per_block,
                                   self.shape.pops_per_iter)


class ReduceTwoKernelPlan(_ReducePlanBase):
    """Initial + merge kernels (Figure 7(c), Figure 8).

    The initial kernel chunks each array over ``initial_blocks`` blocks;
    because blocks cannot synchronize globally, their partials go back to
    global memory and a second *merge* kernel (one block per array) reduces
    them to the final outputs.
    """

    def __init__(self, spec, name, shape, reducer_fn,
                 layout=LAYOUT_ROWS, threads=256,
                 initial_blocks: Optional[int] = None):
        super().__init__(spec, name, shape, reducer_fn, layout, threads)
        self._initial_blocks = initial_blocks
        self.strategy = "reduce.two_kernel"
        if layout != LAYOUT_ROWS:
            self.strategy += f"+{layout}"
        self.optimizations = ["actor_segmentation"]
        if layout != LAYOUT_ROWS:
            self.optimizations.append("memory_restructuring")

    def initial_blocks(self, params) -> int:
        """Blocks per array for the initial kernel (input/target dependent)."""
        if self._initial_blocks is not None:
            return self._initial_blocks
        length = self.shape.nelements(params)
        narrays = self.shape.narrays(params)
        # Fill the machine: enough blocks for every SM, but never so many
        # that blocks fall below one stride of useful work.
        fit = max(1, self.spec.blocks_per_sm(self.threads, 18,
                                             self.threads * 4))
        want = max(1, (self.spec.num_sms * fit) // max(1, narrays))
        max_useful = max(1, math.ceil(length / self.threads))
        return int(min(want, max_useful, 64))

    # -- modeling ---------------------------------------------------------
    def launches(self, params) -> List[PlannedLaunch]:
        narrays = self.shape.narrays(params)
        length = self.shape.nelements(params)
        k = self.shape.pops_per_iter
        reducer = self._reducer(params)
        nblocks = self.initial_blocks(params)
        chunk = math.ceil(length / nblocks)
        iters_per_thread = math.ceil(chunk / self.threads)
        requests = iters_per_thread * k
        coal, uncoal, degree = self._mem_split(requests)
        tree_steps = int(math.log2(self.threads))
        comp = (iters_per_thread * (reducer.element_ops() + 2)
                + tree_steps * (reducer.combine_ops() + 2))
        aux = iters_per_thread * reducer.element_aux_loads()
        shared = self.threads * reducer.state_width * 4
        initial = KernelWorkload(
            blocks=narrays * nblocks, threads_per_block=self.threads,
            comp_insts=comp, coal_mem_insts=coal + aux,
            uncoal_mem_insts=uncoal, uncoal_degree=degree,
            synch_insts=tree_steps + 1, regs_per_thread=18,
            shared_per_block=shared)

        merge_iters = math.ceil(nblocks / self.threads)
        merge = KernelWorkload(
            blocks=narrays, threads_per_block=self.threads,
            comp_insts=(merge_iters + tree_steps)
            * (reducer.combine_ops() + 2),
            coal_mem_insts=merge_iters * reducer.state_width,
            synch_insts=tree_steps + 1, regs_per_thread=16,
            shared_per_block=shared)
        return [
            PlannedLaunch(f"{self.name}_initial", narrays * nblocks,
                          self.threads, initial),
            PlannedLaunch(f"{self.name}_merge", narrays, self.threads,
                          merge),
        ]

    # -- execution ----------------------------------------------------------
    def execute(self, device: Device, buffers, params) -> DeviceArray:
        narrays = self.shape.narrays(params)
        length = self.shape.nelements(params)
        k = self.shape.pops_per_iter
        reducer = self._reducer(params)
        addr = _index_fn(self.layout, self.shape, params)
        nblocks = self.initial_blocks(params)
        chunk = math.ceil(length / nblocks)
        threads = self.threads
        width = reducer.state_width
        out_w = reducer.outputs_per_array
        tree_steps = int(math.log2(threads))
        inbuf = buffers[IN]
        partials = device.alloc(narrays * nblocks * width, dtype=np.float64,
                                name=f"{self.name}.partials")
        out = device.alloc(self.output_size(params), dtype=np.float64,
                           name=f"{self.name}.out")

        def initial_body(ctx):
            r, c = divmod(ctx.bx, nblocks)
            lo = c * chunk
            hi = min(length, lo + chunk)
            state = reducer.identity()
            i = lo + ctx.tx
            while i < hi:
                vals = [ctx.gload(inbuf, addr(r, i, j)) for j in range(k)]
                state = reducer.combine(state, reducer.element(vals, i))
                i += threads
            for w in range(width):
                ctx.sstore(f"s{w}", ctx.tx, state[w])
            yield SYNC
            active = threads // 2
            for _step in range(tree_steps):
                if ctx.tx < active:
                    a = tuple(ctx.sload(f"s{w}", ctx.tx)
                              for w in range(width))
                    b = tuple(ctx.sload(f"s{w}", ctx.tx + active)
                              for w in range(width))
                    merged = reducer.combine(a, b)
                    for w in range(width):
                        ctx.sstore(f"s{w}", ctx.tx, merged[w])
                yield SYNC
                active //= 2
            if ctx.tx == 0:
                final = tuple(ctx.sload(f"s{w}", 0) for w in range(width))
                for w in range(width):
                    ctx.gstore(partials, (w * narrays + r) * nblocks + c,
                               final[w])

        def merge_body(ctx):
            r = ctx.bx
            state = reducer.identity()
            c = ctx.tx
            while c < nblocks:
                part = tuple(
                    ctx.gload(partials, (w * narrays + r) * nblocks + c)
                    for w in range(width))
                state = reducer.combine(state, part)
                c += threads
            for w in range(width):
                ctx.sstore(f"s{w}", ctx.tx, state[w])
            yield SYNC
            active = threads // 2
            for _step in range(tree_steps):
                if ctx.tx < active:
                    a = tuple(ctx.sload(f"s{w}", ctx.tx)
                              for w in range(width))
                    b = tuple(ctx.sload(f"s{w}", ctx.tx + active)
                              for w in range(width))
                    merged = reducer.combine(a, b)
                    for w in range(width):
                        ctx.sstore(f"s{w}", ctx.tx, merged[w])
                yield SYNC
                active //= 2
            if ctx.tx == 0:
                final = tuple(ctx.sload(f"s{w}", 0) for w in range(width))
                for m, value in enumerate(reducer.epilogue(final)):
                    ctx.gstore(out, r * out_w + m, value)

        acc_steps = math.ceil(chunk / threads) if chunk else 0
        merge_steps = math.ceil(nblocks / threads)
        names = [f"s{w}" for w in range(width)]

        def initial_vector(ctx):
            tx = ctx.tx
            r = ctx.bx // nblocks
            c = ctx.bx % nblocks
            lo = c * chunk
            hi = np.minimum(length, lo + chunk)
            state = reducer.videntity(ctx.shape)
            for s in range(acc_steps):
                i = lo + tx + s * threads
                m = i < hi
                if not m.any():
                    break
                vals = [ctx.gload(inbuf, addr(r, i, j), m)
                        for j in range(k)]
                safe_i = np.where(m, i, 0)
                state = _select_state(
                    m,
                    reducer.vcombine(state, reducer.velement(vals, safe_i)),
                    state)
            for name, value in zip(names, state):
                ctx.sstore(name, tx, value)
            ctx.sync()
            lane0, (final,) = _vector_tree(ctx, [(reducer, names)])
            for w, value in enumerate(final):
                lane0.gstore(partials, (w * narrays + r) * nblocks + c, value)

        def merge_vector(ctx):
            tx = ctx.tx
            r = ctx.bx
            state = reducer.videntity(ctx.shape)
            for s in range(merge_steps):
                c = tx + s * threads
                m = c < nblocks
                if not np.any(m):
                    break
                part = tuple(
                    ctx.gload(partials, (w * narrays + r) * nblocks + c, m)
                    for w in range(width))
                state = _select_state(
                    m, reducer.vcombine(state, part), state)
            for name, value in zip(names, state):
                ctx.sstore(name, tx, value)
            ctx.sync()
            lane0, (final,) = _vector_tree(ctx, [(reducer, names)])
            for m_out, value in enumerate(reducer.vepilogue(final)):
                lane0.gstore(out, r * out_w + m_out, value)

        shared = {name: (threads, np.float64) for name in names}
        device.launch(
            Kernel(f"{self.name}_initial", initial_body, 18, shared,
                   vector_body=initial_vector),
            narrays * nblocks, threads, {"in": inbuf})
        device.launch(
            Kernel(f"{self.name}_merge", merge_body, 16, shared,
                   vector_body=merge_vector),
            narrays, threads, {})
        return out

    def cuda_source(self) -> str:
        reducer = self.reducer_fn(None)
        return _two_kernel_cuda(self.name, reducer, self.threads,
                                self.shape.pops_per_iter)


class ReduceThreadPerArrayPlan(_ReducePlanBase):
    """One thread per array — the paper's fifth TMV kernel.

    For matrices with a huge number of tiny rows the pop rate is small and
    the baseline per-thread mapping is already right; with the transposed
    layout produced by memory restructuring each warp load touches 32
    consecutive rows' elements, i.e. it is fully coalesced.
    """

    def __init__(self, spec, name, shape, reducer_fn,
                 layout=LAYOUT_TRANSPOSED, threads=256):
        super().__init__(spec, name, shape, reducer_fn, layout, threads)
        self.strategy = f"reduce.thread_per_array+{layout}"
        self.optimizations = ["actor_segmentation"]
        if layout == LAYOUT_TRANSPOSED:
            self.optimizations.append("memory_restructuring")

    def launches(self, params) -> List[PlannedLaunch]:
        narrays = self.shape.narrays(params)
        length = self.shape.nelements(params)
        k = self.shape.pops_per_iter
        reducer = self._reducer(params)
        blocks = max(1, math.ceil(narrays / self.threads))
        requests = length * k
        if self.layout == LAYOUT_TRANSPOSED:
            coal, uncoal, degree = requests, 0.0, 32.0
        else:
            coal, uncoal, degree = 0.0, requests, 32.0
        comp = length * (reducer.element_ops() + 2) + reducer.combine_ops()
        aux = length * reducer.element_aux_loads()
        workload = KernelWorkload(
            blocks=blocks, threads_per_block=self.threads,
            comp_insts=comp, coal_mem_insts=coal + aux,
            uncoal_mem_insts=uncoal, uncoal_degree=degree,
            regs_per_thread=16, shared_per_block=0)
        return [PlannedLaunch(self.name, blocks, self.threads, workload)]

    def execute(self, device: Device, buffers, params) -> DeviceArray:
        narrays = self.shape.narrays(params)
        length = self.shape.nelements(params)
        k = self.shape.pops_per_iter
        reducer = self._reducer(params)
        addr = _index_fn(self.layout, self.shape, params)
        out = device.alloc(self.output_size(params), dtype=np.float64,
                           name=f"{self.name}.out")
        out_w = reducer.outputs_per_array
        inbuf = buffers[IN]

        def body(ctx):
            r = ctx.global_tid
            if r >= narrays:
                return
            state = reducer.identity()
            for i in range(length):
                vals = [ctx.gload(inbuf, addr(r, i, j)) for j in range(k)]
                state = reducer.combine(state, reducer.element(vals, i))
            for m, value in enumerate(reducer.epilogue(state)):
                ctx.gstore(out, r * out_w + m, value)

        def vector_body(ctx):
            r = ctx.global_tid
            mask = r < narrays
            state = reducer.videntity(ctx.shape)
            for i in range(length):
                vals = [ctx.gload(inbuf, addr(r, i, j), mask)
                        for j in range(k)]
                state = reducer.vcombine(state, reducer.velement(vals, i))
            for m_out, value in enumerate(reducer.vepilogue(state)):
                ctx.gstore(out, r * out_w + m_out, value, mask)

        kernel = Kernel(f"{self.name}_tpa", body, regs_per_thread=16,
                        vector_body=vector_body)
        blocks = max(1, math.ceil(narrays / self.threads))
        device.launch(kernel, blocks, self.threads,
                      {"in": inbuf, "out": out})
        return out

    def cuda_source(self) -> str:
        reducer = self.reducer_fn(None)
        return _thread_per_array_cuda(self.name, reducer, self.threads)


# ---------------------------------------------------------------------------
# CUDA C templates
# ---------------------------------------------------------------------------

def _c_element(reducer: Reducer, pops_per_iter: int) -> Tuple[str, str]:
    """Stride of an iteration's first pop and the element expression
    over ``in[idx]``, ``in[idx + 1]``, ..."""
    value_names = [f"in[idx + {j}]" if j else "in[idx]"
                   for j in range(pops_per_iter)]
    stride = f" * {pops_per_iter}" if pops_per_iter > 1 else ""
    return stride, reducer.c_element(value_names, "i")


def _c_tree(reducer: Reducer, threads: int, pad: str) -> str:
    """``acc`` into ``sdata``, then the ``__syncthreads`` tree over it."""
    combine = reducer.c_combine_stmt("sdata[threadIdx.x]",
                                     "sdata[threadIdx.x + active]")
    return f"""\
{pad}sdata[threadIdx.x] = acc;
{pad}__syncthreads();
{pad}for (int active = {threads} / 2; active >= 1; active >>= 1) {{
{pad}    if (threadIdx.x < active) {{
{pad}        {combine}
{pad}    }}
{pad}    __syncthreads();
{pad}}}
"""


def _single_kernel_cuda(name: str, reducer: Reducer, threads: int,
                        rows_per_block: int, pops_per_iter: int = 1) -> str:
    stride, elem = _c_element(reducer, pops_per_iter)
    return f"""\
// {name}: single-kernel stream reduction (one block per array group)
__global__ void {name}_single(const float* in, float* out,
                              int narrays, int nelements) {{
    __shared__ float sdata[{threads}];
    for (int rr = 0; rr < {rows_per_block}; ++rr) {{
        int r = blockIdx.x * {rows_per_block} + rr;
        {reducer.c_state_decl("acc")}
        if (r < narrays) {{
            for (int i = threadIdx.x; i < nelements; i += {threads}) {{
                int idx = (r * nelements + i){stride};
                float v = {elem};
                {reducer.c_combine_stmt("acc", "v")}
            }}
        }}
{_c_tree(reducer, threads, " " * 8)}\
        if (r < narrays && threadIdx.x == 0)
            out[r] = sdata[0];
    }}
}}
"""


def _two_kernel_cuda(name: str, reducer: Reducer, threads: int,
                     pops_per_iter: int = 1) -> str:
    stride, elem = _c_element(reducer, pops_per_iter)
    return f"""\
// {name}: two-kernel stream reduction (initial + merge, Figure 8)
__global__ void {name}_initial(const float* in, float* partials,
                               int nelements, int nblocks) {{
    __shared__ float sdata[{threads}];
    int chunk = (nelements + nblocks - 1) / nblocks;
    int lo = (blockIdx.x % nblocks) * chunk;
    int hi = min(nelements, lo + chunk);
    int r = blockIdx.x / nblocks;
    {reducer.c_state_decl("acc")}
    for (int i = lo + threadIdx.x; i < hi; i += {threads}) {{
        int idx = (r * nelements + i){stride};
        float v = {elem};
        {reducer.c_combine_stmt("acc", "v")}
    }}
{_c_tree(reducer, threads, " " * 4)}\
    if (threadIdx.x == 0)
        partials[blockIdx.x] = sdata[0];
}}

__global__ void {name}_merge(const float* partials, float* out,
                             int nblocks) {{
    __shared__ float sdata[{threads}];
    int r = blockIdx.x;
    {reducer.c_state_decl("acc")}
    for (int c = threadIdx.x; c < nblocks; c += {threads}) {{
        float v = partials[r * nblocks + c];
        {reducer.c_combine_stmt("acc", "v")}
    }}
{_c_tree(reducer, threads, " " * 4)}\
    if (threadIdx.x == 0)
        out[r] = sdata[0];
}}
"""


def _thread_per_array_cuda(name: str, reducer: Reducer,
                           threads: int) -> str:
    return f"""\
// {name}: thread-per-array reduction over transposed (restructured) input
__global__ void {name}_tpa(const float* in, float* out,
                           int narrays, int nelements) {{
    int r = blockIdx.x * {threads} + threadIdx.x;
    if (r >= narrays) return;
    {reducer.c_state_decl("acc")}
    for (int i = 0; i < nelements; ++i) {{
        float v = in[i * narrays + r];   // coalesced across the warp
        {reducer.c_combine_stmt("acc", "v")}
    }}
    out[r] = acc;
}}
"""
