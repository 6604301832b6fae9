"""Elementwise (map) kernel plans.

A map segment applies per-iteration output expressions to ``k`` popped
elements, producing ``m`` pushed elements, over ``iterations`` total
iterations.  Variants cover the paper's knobs:

* **memory restructuring** (§4.1.1): with ``k > 1`` the canonical
  (interleaved) stream layout makes warp loads straddle ``k`` segments;
  the restructured (SoA) layout brings each pop component contiguous so
  every access coalesces — exactly Figure 3;
* **horizontal thread integration** (§4.3.2): ``items_per_thread`` merges
  consecutive logical threads, reducing block counts when they are
  excessive;
* **vertical integration** (§4.3.1): fused chains of maps arrive here as a
  single composed pattern (see :mod:`repro.compiler.fusion`), so the
  intermediate values live in registers instead of global memory.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence

import numpy as np

from ...gpu import Device, DeviceArray, GPUSpec, Kernel
from ...ir import nodes as N
from ...perfmodel import KernelWorkload
from ..exprgen import (ChainStage, c_expr, compile_scalar_fn,
                       compile_vector_fn)
from .base import (IN, LAYOUT_INTERLEAVED, LAYOUT_RESTRUCTURED, KernelPlan,
                   PlannedLaunch, expr_aux_loads, expr_ops, freeze_scalars)


class MapShape:
    """Geometry of a map segment.

    The iteration count comes from rate expressions whose evaluation is
    pure in the scalar params, so it is memoized per frozen-scalar
    binding — the warm serving path asks for it on every run.
    """

    def __init__(self, iterations: Callable[[Dict], int],
                 pops_per_iter: int, pushes_per_iter: int):
        self._iterations = iterations
        self.pops_per_iter = pops_per_iter
        self.pushes_per_iter = pushes_per_iter
        self._memo: Dict[tuple, int] = {}

    def iterations(self, params) -> int:
        key = freeze_scalars(params)
        count = self._memo.get(key)
        if count is None:
            count = self._memo[key] = int(self._iterations(params))
        return count

    def input_size(self, params) -> int:
        return self.iterations(params) * self.pops_per_iter

    def output_size(self, params) -> int:
        return self.iterations(params) * self.pushes_per_iter


class MapPlan(KernelPlan):
    """Grid-stride elementwise kernel."""

    def __init__(self, spec: GPUSpec, name: str, shape: MapShape,
                 outputs: Sequence[N.Expr],
                 arrays_fn: Callable[[Dict], Dict[str, np.ndarray]] = None,
                 layout: str = LAYOUT_INTERLEAVED,
                 threads: int = 256, items_per_thread: int = 1,
                 fused_actors: int = 1,
                 gather: N.Expr = None):
        super().__init__(spec, name)
        self.shape = shape
        self.outputs = list(outputs)
        self.arrays_fn = arrays_fn or (lambda params: {})
        self.layout = layout
        self.input_layout = layout
        self.threads = threads
        self.items_per_thread = max(1, items_per_thread)
        self.fused_actors = fused_actors
        #: Optional index-translation expression (in ``_i``): logical input
        #: element ``i`` is read from source position ``gather(i)`` —
        #: transfer actors replaced by index translation (§4.3.1).
        self.gather = gather
        if gather is not None and shape.pops_per_iter != 1:
            raise ValueError("gather maps require pops_per_iter == 1")
        self.strategy = "map.grid_stride"
        self.optimizations = []
        if self.items_per_thread > 1:
            self.strategy = f"map.thread_merged[{self.items_per_thread}]"
            self.optimizations.append("horizontal_integration")
        if layout == LAYOUT_RESTRUCTURED:
            self.strategy += "+soa"
            self.optimizations.append("memory_restructuring")
        if gather is not None:
            self.strategy = "map.index_translated"
            self.optimizations.append("vertical_integration")
        elif fused_actors > 1:
            self.optimizations.append("vertical_integration")

    # ------------------------------------------------------------------
    def _grid(self, params) -> int:
        iterations = self.shape.iterations(params)
        total_threads = math.ceil(iterations / self.items_per_thread)
        return max(1, math.ceil(total_threads / self.threads))

    def output_size(self, params) -> int:
        return self.shape.output_size(params)

    def restructure_permutation(self, size, params):
        if self.layout == LAYOUT_INTERLEAVED:
            return None
        k = self.shape.pops_per_iter
        n = self.shape.iterations(params)
        return np.arange(n * k).reshape(n, k).T.reshape(-1)

    # ------------------------------------------------------------------
    def launches(self, params) -> List[PlannedLaunch]:
        iterations = self.shape.iterations(params)
        k = self.shape.pops_per_iter
        m = self.shape.pushes_per_iter
        blocks = self._grid(params)
        requests = (k + m) * self.items_per_thread
        if self.gather is not None:
            # Index-translated loads follow the transfer permutation;
            # assume worst-case scatter for the load half.
            coal = float(m * self.items_per_thread)
            uncoal = float(k * self.items_per_thread)
            degree = 32.0
        elif k <= 1 and m <= 1 or self.layout == LAYOUT_RESTRUCTURED:
            coal, uncoal, degree = float(requests), 0.0, 32.0
        else:
            coal = float(self.items_per_thread)   # at least stores of m==1
            uncoal = float(requests - self.items_per_thread)
            degree = float(min(max(k, m), 32))
        ops = sum(expr_ops(o) for o in self.outputs) + 3
        aux = sum(expr_aux_loads(o) for o in self.outputs)
        workload = KernelWorkload(
            blocks=blocks, threads_per_block=self.threads,
            comp_insts=ops * self.items_per_thread,
            coal_mem_insts=coal + aux * self.items_per_thread,
            uncoal_mem_insts=uncoal, uncoal_degree=degree,
            regs_per_thread=14 + 2 * k, shared_per_block=0)
        _ = iterations
        return [PlannedLaunch(self.name, blocks, self.threads, workload)]

    # ------------------------------------------------------------------
    def chain_stage(self, params) -> ChainStage:
        """Map vector bodies are lane-independent — always chain-fusable.

        The stage carries the exact load indexing the plan's
        ``vector_body`` uses (interleaved ``i*k+j``, restructured
        ``j*n+i``, or gather-translated), so the fused emission and the
        unfused chunked execution read and write identical elements.
        """
        return ChainStage(
            name=self.name,
            outputs=list(self.outputs),
            k=self.shape.pops_per_iter,
            m=self.shape.pushes_per_iter,
            iterations=self.shape.iterations(params),
            restructured=self.layout == LAYOUT_RESTRUCTURED,
            gather=self.gather,
            arrays=self.arrays_fn(params))

    # ------------------------------------------------------------------
    def _compiled_fns(self, params):
        """Scalar + vector element functions, built once per binding."""
        def build():
            arrays = self.arrays_fn(params)
            k = self.shape.pops_per_iter
            arg_names = [f"_x{j}" for j in range(k)] + ["_i"]
            fns = [compile_scalar_fn(o, arg_names, params, name=f"out{idx}",
                                     arrays=arrays)
                   for idx, o in enumerate(self.outputs)]
            vfns = [compile_vector_fn(o, arg_names, params,
                                      name=f"vout{idx}", arrays=arrays)
                    for idx, o in enumerate(self.outputs)]
            gather_fn = vgather = None
            if self.gather is not None:
                gather_fn = compile_scalar_fn(self.gather, ["_i"], params,
                                              name="gather", arrays=arrays)
                vgather = compile_vector_fn(self.gather, ["_i"], params,
                                            name="vgather", arrays=arrays)
            return fns, vfns, gather_fn, vgather
        return self.cached_artifact("map_fns", params, build)

    def execute(self, device: Device, buffers, params) -> DeviceArray:
        iterations = self.shape.iterations(params)
        k = self.shape.pops_per_iter
        m = self.shape.pushes_per_iter
        fns, vfns, gather_fn, vgather = self._compiled_fns(params)
        out = device.alloc(self.output_size(params), dtype=np.float64,
                           name=f"{self.name}.out")
        inbuf = buffers[IN]
        blocks = self._grid(params)
        total_threads = blocks * self.threads
        restructured = self.layout == LAYOUT_RESTRUCTURED

        def body(ctx):
            i = ctx.global_tid
            while i < iterations:
                if gather_fn is not None:
                    vals = [ctx.gload(inbuf, int(gather_fn(i)))]
                elif restructured:
                    vals = [ctx.gload(inbuf, j * iterations + i)
                            for j in range(k)]
                else:
                    vals = [ctx.gload(inbuf, i * k + j) for j in range(k)]
                for idx, fn in enumerate(fns):
                    ctx.gstore(out, i * m + idx, fn(*vals, i))
                i += total_threads

        steps = math.ceil(iterations / total_threads) if iterations else 0

        def vector_body(ctx):
            i0 = ctx.global_tid
            for s in range(steps):
                i = i0 + s * total_threads
                if (s + 1) * total_threads <= iterations:
                    # A full step: every lane is live.
                    mask, safe_i = None, i
                else:
                    mask = i < iterations
                    if not mask.any():
                        break
                    safe_i = np.where(mask, i, 0)
                if vgather is not None:
                    gidx = np.asarray(vgather(safe_i)).astype(np.int64)
                    vals = [ctx.gload(inbuf, gidx, mask)]
                elif restructured:
                    vals = [ctx.gload(inbuf, j * iterations + i, mask)
                            for j in range(k)]
                else:
                    vals = [ctx.gload(inbuf, i * k + j, mask)
                            for j in range(k)]
                for idx, fn in enumerate(vfns):
                    ctx.gstore(out, i * m + idx, fn(*vals, safe_i), mask)

        kernel = Kernel(f"{self.name}_map", body,
                        regs_per_thread=14 + 2 * k,
                        vector_body=vector_body)
        device.launch(kernel, blocks, self.threads,
                      {"in": inbuf, "out": out})
        return out

    # ------------------------------------------------------------------
    def cuda_source(self) -> str:
        k = self.shape.pops_per_iter
        m = self.shape.pushes_per_iter
        if self.layout == LAYOUT_RESTRUCTURED:
            loads = "\n        ".join(
                f"float _x{j} = in[{j} * n + i];" for j in range(k))
        else:
            loads = "\n        ".join(
                f"float _x{j} = in[i * {k} + {j}];" for j in range(k))
        renames = {"_i": "i"}
        stores = "\n        ".join(
            f"out[i * {m} + {idx}] = {c_expr(o, renames)};"
            for idx, o in enumerate(self.outputs))
        return f"""\
// {self.name}: grid-stride map ({self.strategy})
__global__ void {self.name}_map(const float* in, float* out, int n) {{
    int stride = blockDim.x * gridDim.x;
    for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n;
         i += stride) {{
        {loads}
        {stores}
    }}
}}
"""
