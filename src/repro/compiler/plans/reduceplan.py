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

import functools
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


def _vector_tree(ctx, reducer, names, rows=None):
    """Vector body of the shared-memory tree reduction and its read-back.

    ``names`` are the shared names of the reducer's state words;
    ``rows`` (``(blocks, 1)`` or None) masks off blocks with no row.
    Each step runs on its live lanes, ``ctx.lanes(active)``, so a block
    does ``threads - 1`` lane combines, not ``threads`` per step.
    Returns lane 0's view and the reduced state read through it.
    """
    active = ctx.threads // 2
    while active:
        live = ctx.lanes(active)
        tx = live.tx
        a = tuple(live.sload(name, tx, rows) for name in names)
        b = tuple(live.sload(name, tx + active, rows) for name in names)
        for name, value in zip(names, reducer.vcombine(a, b)):
            live.sstore(name, tx, value, rows)
        live.sync()
        active //= 2
    lane0 = ctx.lanes(1)
    return lane0, tuple(lane0.sload(name, 0, rows) for name in names)


def _state_words(words, i):
    """A merge's element: the partial words it loads are a state."""
    return tuple(words)


def _tree_kernel(reducer, names, narrays, spans, fold, finish, ctx):
    """Reference body of a tree-reduction kernel: one thread.

    ``spans(bx)`` lists the block's spans ``(r, c, lo, hi)``; a span's
    row exists where ``r < narrays``.  Per span, each thread folds
    ``element(words, i)`` over ``i = lo + tx, lo + tx + threads, ...``
    below ``hi``, with ``words`` the ``width`` words of ``src`` at
    ``at(r, i, j)``, and stores its state to shared memory; the block
    tree-reduces the states under barriers, and lane 0 writes each
    value ``m`` of ``final(state)`` to ``dst`` at ``put(r, c, m)``.
    ``fold`` is ``(src, at, width, element, velement)`` and ``finish``
    ``(dst, put, final, vfinal)``; the v-forms are
    :func:`_vector_kernel`'s.
    """
    src, at, width, element, _ = fold
    dst, put, final, _ = finish
    combine = reducer.combine
    threads = ctx.bdim.x
    tx = ctx.tx
    words = range(width)
    for r, c, lo, hi in spans(ctx.bx):
        live = r < narrays
        if live:
            state = reducer.identity()
            # A span's bound may be a numpy integer; fold over ints.
            i, hi = lo + tx, int(hi)
            while i < hi:
                vals = [ctx.gload(src, at(r, i, j)) for j in words]
                state = combine(state, element(vals, i))
                i += threads
            for name, value in zip(names, state):
                ctx.sstore(name, tx, value)
        yield SYNC
        active = threads // 2
        while active:
            if live and tx < active:
                a = tuple(ctx.sload(name, tx) for name in names)
                b = tuple(ctx.sload(name, tx + active) for name in names)
                for name, value in zip(names, combine(a, b)):
                    ctx.sstore(name, tx, value)
            yield SYNC
            active //= 2
        if live and tx == 0:
            state = tuple(ctx.sload(name, 0) for name in names)
            for m, value in enumerate(final(state)):
                ctx.gstore(dst, put(r, c, m), value)


def _vector_kernel(reducer, names, narrays, spans, fold, finish, ctx):
    """Vector body of :func:`_tree_kernel`: every block at once.

    A span's rows are masked only where some block lacks its row, so
    where every row exists the fold's mask and index are one row of
    lanes, not one per block.
    """
    src, at, width, _, element = fold
    dst, put, _, final = finish
    tx = ctx.tx
    for r, c, lo, hi in spans(ctx.bx):
        rows = r < narrays
        rows = None if rows.all() else rows
        state = reducer.videntity(ctx.shape)
        i = lo + tx
        while True:
            mask = i < hi if rows is None else rows & (i < hi)
            if not mask.any():
                break
            vals = [ctx.gload(src, at(r, i, j), mask) for j in range(width)]
            part = element(vals, np.where(mask, i, 0))
            state = _select_state(mask, reducer.vcombine(state, part), state)
            i = i + ctx.threads
        for name, value in zip(names, state):
            ctx.sstore(name, tx, value, rows)
        ctx.sync()
        lane0, state = _vector_tree(ctx, reducer, names, rows)
        for m, value in enumerate(final(state)):
            lane0.gstore(dst, put(r, c, m), value, rows)


def _launch_tree(device, name, regs, blocks, threads, reducer, narrays,
                 spans, fold, finish, args):
    """Launch one tree-reduction kernel (:func:`_tree_kernel`, with
    :func:`_vector_kernel` as its vector body)."""
    names = [f"s{w}" for w in range(reducer.state_width)]
    # Every thread of a block walks the same spans: the reference body
    # computes them once per block, in a cache that lives as long as
    # this launch's kernel.
    block_spans = functools.lru_cache(maxsize=None)(spans)
    kernel = Kernel(
        name, functools.partial(_tree_kernel, reducer, names, narrays,
                                block_spans, fold, finish),
        regs, {n: (threads, np.float64) for n in names},
        vector_body=functools.partial(_vector_kernel, reducer, names,
                                      narrays, spans, fold, finish))
    device.launch(kernel, blocks, threads, args)


def _input_fold(plan, reducer, inbuf, params):
    """The fold over a plan's input: each iteration's pops, mapped by
    the reducer's element function."""
    return (inbuf, _index_fn(plan.layout, plan.shape, params),
            plan.shape.pops_per_iter, reducer.element, reducer.velement)


def _output_finish(reducer, out):
    """Lane 0's epilogue outputs, ``outputs_per_array`` per row."""
    out_w = reducer.outputs_per_array
    return (out, lambda r, c, m: r * out_w + m, reducer.epilogue,
            reducer.vepilogue)


def launch_single_kernel(device: Device, plan, name: str, reducer: Reducer,
                         params, inbuf: DeviceArray, out: DeviceArray,
                         rows_per_block: int = 1) -> None:
    """Figure 7(b): one block per ``rows_per_block`` arrays of ``plan``'s
    input tree-reduces each of them and writes its epilogue to ``out``."""
    narrays = plan.shape.narrays(params)
    length = plan.shape.nelements(params)
    slots = range(rows_per_block)

    def spans(bx):
        return [(bx * rows_per_block + rr, 0, 0, length) for rr in slots]

    _launch_tree(device, name, 18, max(1, math.ceil(narrays / rows_per_block)),
                 plan.threads, reducer, narrays, spans,
                 _input_fold(plan, reducer, inbuf, params),
                 _output_finish(reducer, out), {"in": inbuf, "out": out})


def launch_two_kernel(device: Device, plan, prefix: str, initial_regs: int,
                      reducer: Reducer, params, inbuf: DeviceArray,
                      partials: DeviceArray, out: DeviceArray,
                      nblocks: int) -> None:
    """Figures 7(c) and 8: ``{prefix}_initial`` reduces each array in
    ``nblocks`` chunks, one block each, into state words in
    ``partials``; ``{prefix}_merge``, one block per array, reduces them
    and writes the epilogue to ``out``."""
    narrays = plan.shape.narrays(params)
    length = plan.shape.nelements(params)
    chunk = math.ceil(length / nblocks)

    def partial(r, c, w):
        return (w * narrays + r) * nblocks + c

    def initial_spans(bx):
        r, c = divmod(bx, nblocks)
        return [(r, c, c * chunk, np.minimum(length, c * chunk + chunk))]

    _launch_tree(device, f"{prefix}_initial", initial_regs,
                 narrays * nblocks, plan.threads, reducer, narrays,
                 initial_spans, _input_fold(plan, reducer, inbuf, params),
                 (partials, partial, tuple, tuple), {"in": inbuf})
    _launch_tree(device, f"{prefix}_merge", 16, narrays, plan.threads,
                 reducer, narrays, lambda bx: [(bx, 0, 0, nblocks)],
                 (partials, partial, reducer.state_width, _state_words,
                  _state_words),
                 _output_finish(reducer, out), {})


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
        out = device.alloc(self.output_size(params), dtype=np.float64,
                           name=f"{self.name}.out")
        launch_single_kernel(device, self, f"{self.name}_single",
                             self._reducer(params), params, buffers[IN], out,
                             self.rows_per_block)
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
        reducer = self._reducer(params)
        nblocks = self.initial_blocks(params)
        partials = device.alloc(
            self.shape.narrays(params) * nblocks * reducer.state_width,
            dtype=np.float64, name=f"{self.name}.partials")
        out = device.alloc(self.output_size(params), dtype=np.float64,
                           name=f"{self.name}.out")
        launch_two_kernel(device, self, self.name, 18, reducer, params,
                          buffers[IN], partials, out, nblocks)
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
