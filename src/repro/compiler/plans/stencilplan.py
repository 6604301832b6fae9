"""Neighboring-access (stencil) kernel plans (§4.1.2, Figures 4–6).

A stencil segment computes each output cell from a fixed set of neighbor
offsets of the corresponding input cell on a ``height × width`` grid.

* :class:`NaiveStencilPlan` — thread per cell, every neighbor read from
  global memory: the whole input is fetched once per offset ("accessing the
  whole input five times" for a 5-point stencil).
* :class:`TiledStencilPlan` — each block stages a *super tile* plus its halo
  into shared memory, synchronizes, and computes several output cells per
  thread.  Tile size/shape is chosen per input with the paper's reuse
  metric (sum of element accesses over the tile divided by halo size),
  shrinking for small inputs to keep enough blocks and growing for large
  inputs to amortize halo traffic.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from ...gpu import SYNC, Device, DeviceArray, GPUSpec, Kernel
from ...ir.nodes import free_vars
from ...ir.patterns import StencilPattern
from ...ir.rates import eval_expr
from ...perfmodel import KernelWorkload
from ..exprgen import compile_scalar_fn, compile_vector_fn
from .base import IN, KernelPlan, PlannedLaunch, expr_ops, freeze_scalars


class StencilShape:
    """Grid geometry of a stencil segment.

    Width and height come from rate expressions whose evaluation is pure
    in the scalar params, so they are memoized per frozen-scalar binding
    — the warm serving path asks for them on every run.  A binding whose
    evaluation raises is not memoized.
    """

    def __init__(self, width: Callable[[Dict], int],
                 height: Callable[[Dict], int]):
        self._width = width
        self._height = height
        self._memo: Dict[tuple, Tuple[int, int]] = {}

    def _dims(self, params) -> Tuple[int, int]:
        key = freeze_scalars(params)
        dims = self._memo.get(key)
        if dims is None:
            dims = self._memo[key] = (int(self._width(params)),
                                      int(self._height(params)))
        return dims

    def width(self, params) -> int:
        return self._dims(params)[0]

    def height(self, params) -> int:
        return self._dims(params)[1]

    def size(self, params) -> int:
        return self.width(params) * self.height(params)


def linear_offsets(pattern: StencilPattern,
                   params: Dict[str, float]) -> List[int]:
    """Evaluate the pattern's displacement expressions to integers."""
    return [int(eval_expr(disp, params)) for disp in pattern.offsets]


def _decompose(disps: List[int], width: int) -> List[Tuple[int, int]]:
    pairs = []
    for d in disps:
        dy = int(round(d / width)) if width > 0 else 0
        dx = d - dy * width
        if abs(dx) >= width and width > 1:
            raise ValueError(
                f"stencil displacement {d} does not decompose on width "
                f"{width}")
        pairs.append((dy, dx))
    return pairs


def decompose_offsets(pattern: StencilPattern,
                      params: Dict[str, float],
                      width: int) -> List[Tuple[int, int]]:
    """Evaluate the pattern's linear displacements into (dy, dx) pairs.

    Valid under the actor's edge guard, which must exclude cells whose
    neighbors would wrap across row boundaries (linear offset semantics
    agree with 2-D semantics exactly on guarded-interior cells).
    """
    return _decompose(linear_offsets(pattern, params), width)


def reuse_metric(tile_w: int, tile_h: int, halo_x: int, halo_y: int,
                 accesses_per_cell: int) -> float:
    """The paper's tile-shape score: served accesses per halo element."""
    halo_size = ((tile_w + 2 * halo_x) * (tile_h + 2 * halo_y)
                 - tile_w * tile_h)
    if halo_size <= 0:
        return math.inf
    return tile_w * tile_h * accesses_per_cell / halo_size


class _StencilPlanBase(KernelPlan):
    def __init__(self, spec: GPUSpec, name: str, shape: StencilShape,
                 pattern: StencilPattern, threads: int = 256):
        super().__init__(spec, name)
        self.shape = shape
        self.pattern = pattern
        self.threads = threads

    def output_size(self, params) -> int:
        return self.shape.size(params)

    def _fns(self, params):
        def build():
            noff = len(self.pattern.offsets)
            args = [f"_p{k}" for k in range(noff)] + ["_i"]
            compute = compile_scalar_fn(self.pattern.compute, args, params,
                                        name="compute")
            guard = None
            if self.pattern.guard is not None:
                guard = compile_scalar_fn(self.pattern.guard, ["_i"], params,
                                          name="guard")
            fallback = None
            if self.pattern.guard_else is not None:
                fallback = compile_scalar_fn(self.pattern.guard_else, args,
                                             params, name="fallback")
            return compute, guard, fallback
        return self.cached_artifact("stencil_fns", params, build)

    def _vfns(self, params):
        def build():
            noff = len(self.pattern.offsets)
            args = [f"_p{k}" for k in range(noff)] + ["_i"]
            vcompute = compile_vector_fn(self.pattern.compute, args, params,
                                         name="vcompute")
            vguard = None
            if self.pattern.guard is not None:
                vguard = compile_vector_fn(self.pattern.guard, ["_i"],
                                           params, name="vguard")
            vfallback = None
            if self.pattern.guard_else is not None:
                vfallback = compile_vector_fn(self.pattern.guard_else, args,
                                              params, name="vfallback")
            return vcompute, vguard, vfallback
        return self.cached_artifact("stencil_vfns", params, build)

    def _linear_offsets(self, params) -> List[int]:
        """Displacements for this binding, evaluated once and reused
        warm."""
        return self.cached_artifact(
            "offsets", params, lambda: linear_offsets(self.pattern, params))

    def _decomposed_offsets(self, params) -> List[Tuple[int, int]]:
        def build():
            width = max(1, self.shape.width(params))
            return _decompose(self._linear_offsets(params), width)
        return self.cached_artifact("pairs", params, build)

    def _compute_ops(self) -> int:
        return expr_ops(self.pattern.compute) + 4


class NaiveStencilPlan(_StencilPlanBase):
    """Thread per cell, all neighbors read from global memory."""

    strategy = "stencil.global"

    def __init__(self, spec, name, shape, pattern, threads=256):
        super().__init__(spec, name, shape, pattern, threads)
        self.optimizations = []

    def launches(self, params) -> List[PlannedLaunch]:
        size = self.shape.size(params)
        noff = len(self.pattern.offsets)
        blocks = max(1, math.ceil(size / self.threads))
        workload = KernelWorkload(
            blocks=blocks, threads_per_block=self.threads,
            comp_insts=self._compute_ops(),
            coal_mem_insts=float(noff + 1),   # neighbor loads + store
            regs_per_thread=18, shared_per_block=0)
        return [PlannedLaunch(self.name, blocks, self.threads, workload)]

    def execute(self, device: Device, buffers, params) -> DeviceArray:
        width = self.shape.width(params)
        height = self.shape.height(params)
        size = width * height
        disps = self._linear_offsets(params)
        compute, guard, fallback = self._fns(params)
        out = device.alloc(size, dtype=np.float64, name=f"{self.name}.out")
        inbuf = buffers[IN]
        threads = self.threads

        def body(ctx):
            i = ctx.global_tid
            if i >= size:
                return
            in_bounds = all(0 <= i + d < size for d in disps)
            ok = in_bounds if guard is None else guard(i)
            if ok:
                vals = [ctx.gload(inbuf, i + d) for d in disps]
                ctx.gstore(out, i, compute(*vals, i))
            else:
                center = ctx.gload(inbuf, i)
                if fallback is not None:
                    vals = [center] * len(disps)
                    ctx.gstore(out, i, fallback(*vals, i))
                else:
                    ctx.gstore(out, i, center)

        vcompute, vguard, vfallback = self._vfns(params)
        lo, hi = min(disps), max(disps)

        def vector_body(ctx):
            # Mirrors the scalar per-lane access sequences: ok lanes load
            # every tap, guard-excluded lanes load only the center, and all
            # alive lanes store once.
            i = ctx.global_tid
            alive = i < size
            if not alive.any():
                return
            safe_i = np.where(alive, i, 0)
            if vguard is None:
                # Every tap is in bounds iff the extreme taps are.
                ok = (i + lo >= 0) & (i + hi < size)
            else:
                ok = np.asarray(vguard(safe_i), dtype=bool)
            okm = alive & ok
            elm = alive & ~ok
            vals = [ctx.gload(inbuf, np.where(okm, i + d, 0), okm)
                    for d in disps]
            center = ctx.gload(inbuf, i, elm)
            result = vcompute(*vals, safe_i)
            if vfallback is not None:
                alt = vfallback(*([center] * len(disps)), safe_i)
            else:
                alt = center
            ctx.gstore(out, i, np.where(ok, result, alt), alive)

        kernel = Kernel(f"{self.name}_naive", body, regs_per_thread=18,
                        vector_body=vector_body)
        blocks = max(1, math.ceil(size / threads))
        device.launch(kernel, blocks, threads, {"in": inbuf, "out": out})
        return out

    def cuda_source(self) -> str:
        return (f"// {self.name}: naive global-memory stencil "
                f"({len(self.pattern.offsets)} loads per cell)\n")


@dataclasses.dataclass(frozen=True)
class _Tiling:
    """One binding's super-tile geometry (:meth:`TiledStencilPlan._tiling`).

    ``fallback`` marks the tile-grid cells (block-major, then row-major
    in the tile) that lie in the image but fail the guard or have a tap
    off it: a bool mask, or those cells' ``int32`` indices when that is
    smaller, so at most one byte per cell.
    """

    width: int
    height: int
    tile: Tuple[int, int]
    halo: Tuple[int, int]
    pairs: List[Tuple[int, int]]
    tiles: Tuple[int, int]
    fallback: np.ndarray

    def fallback_mask(self) -> np.ndarray:
        """``fallback`` as a ``(blocks, cells)`` bool mask."""
        shape = (self.tiles[0] * self.tiles[1], self.tile[0] * self.tile[1])
        if self.fallback.dtype == bool:
            return self.fallback.reshape(shape)
        mask = np.zeros(shape[0] * shape[1], dtype=bool)
        mask[self.fallback] = True
        return mask.reshape(shape)


class TiledStencilPlan(_StencilPlanBase):
    """Super-tile shared-memory stencil with halo staging (Figures 5–6)."""

    strategy = "stencil.super_tile"

    #: Candidate tile widths (multiples of the warp size, §4.1.2) and
    #: heights enumerated by the reuse-metric search.
    TILE_WIDTHS = (32, 64, 128)
    TILE_HEIGHTS = (4, 8, 16, 32)

    def __init__(self, spec, name, shape, pattern, threads=256,
                 tile: Tuple[int, int] = None):
        super().__init__(spec, name, shape, pattern, threads)
        self._fixed_tile = tile
        self.optimizations = ["neighboring_access"]
        # The vector body builds the cell index only for a body that
        # reads it.
        self._reads_index = any(
            expr is not None and "_i" in free_vars(expr)
            for expr in (pattern.compute, pattern.guard_else))

    # ------------------------------------------------------------------
    def halo(self, params) -> Tuple[int, int]:
        pairs = self._decomposed_offsets(params)
        hx = max((abs(dx) for _dy, dx in pairs), default=0)
        hy = max((abs(dy) for dy, _dx in pairs), default=0)
        return hx, hy

    def choose_tile(self, params) -> Tuple[int, int]:
        """Pick the super-tile shape by reuse metric under constraints.

        Constraints: tile width a warp multiple, the staged region fits in
        a shared-memory budget, and — the input-aware part — the grid keeps
        at least ~2 blocks per SM when the input allows it, shrinking the
        tile for small inputs.
        """
        if self._fixed_tile is not None:
            return self._fixed_tile
        width = self.shape.width(params)
        height = self.shape.height(params)
        hx, hy = self.halo(params)
        budget = self.spec.max_shared_mem_per_block // 2
        target_blocks = 2 * self.spec.num_sms
        accesses = len(self.pattern.offsets)
        best = None
        best_score = -math.inf
        for tw in self.TILE_WIDTHS:
            if tw > max(32, width):
                continue
            for th in self.TILE_HEIGHTS:
                if th > max(1, height):
                    continue
                staged = (tw + 2 * hx) * (th + 2 * hy) * 4
                if staged > budget:
                    continue
                blocks = (math.ceil(width / tw) * math.ceil(height / th))
                score = reuse_metric(tw, th, hx, hy, accesses)
                if blocks < target_blocks:
                    # Small input: prefer more blocks over reuse.
                    score /= (1 + target_blocks - blocks)
                if score > best_score:
                    best_score = score
                    best = (tw, th)
        if best is None:
            best = (32, 4)
        return best

    def _grid(self, params) -> int:
        width = self.shape.width(params)
        height = self.shape.height(params)
        tw, th = self.choose_tile(params)
        return max(1, math.ceil(width / tw) * math.ceil(height / th))

    # ------------------------------------------------------------------
    def launches(self, params) -> List[PlannedLaunch]:
        tw, th = self.choose_tile(params)
        hx, hy = self.halo(params)
        blocks = self._grid(params)
        cells = tw * th
        staged = (tw + 2 * hx) * (th + 2 * hy)
        warps = max(1, self.threads // self.spec.warp_size)
        loads = staged / (self.spec.warp_size * warps)
        stores = cells / (self.spec.warp_size * warps)
        cells_per_thread = max(1, cells // self.threads)
        comp = cells_per_thread * (self._compute_ops()
                                   + len(self.pattern.offsets))
        workload = KernelWorkload(
            blocks=blocks, threads_per_block=self.threads,
            comp_insts=comp, coal_mem_insts=loads + stores,
            synch_insts=2, regs_per_thread=20,
            shared_per_block=staged * 4)
        return [PlannedLaunch(self.name, blocks, self.threads, workload)]

    # ------------------------------------------------------------------
    def _tiling(self, params) -> "_Tiling":
        """The binding's tile geometry, built once per binding."""
        def build():
            width = self.shape.width(params)
            height = self.shape.height(params)
            pairs = self._decomposed_offsets(params)
            tw, th = self.choose_tile(params)
            tiles_x = math.ceil(width / tw)
            tiles_y = math.ceil(height / th)
            # Tile-grid coordinates, (tiles_y, tiles_x, th, tw).
            gy = (np.arange(tiles_y)[:, None] * th
                  + np.arange(th))[:, None, :, None]
            gx = (np.arange(tiles_x)[:, None] * tw
                  + np.arange(tw))[None, :, None, :]
            cell = (gy < height) & (gx < width)
            # Every tap is in bounds iff the extreme taps are.
            ok = ((gy + min(dy for dy, _dx in pairs) >= 0)
                  & (gy + max(dy for dy, _dx in pairs) < height)
                  & (gx + min(dx for _dy, dx in pairs) >= 0)
                  & (gx + max(dx for _dy, dx in pairs) < width))
            vguard = self._vfns(params)[1]
            if vguard is not None:
                i = np.where(cell, gy * width + gx, 0)
                ok = ok & np.asarray(vguard(i), dtype=bool)
            fallback = (cell & ~ok).reshape(-1)
            cells = np.flatnonzero(fallback).astype(np.int32)
            if cells.nbytes < fallback.nbytes:
                fallback = cells
            return _Tiling(width, height, (tw, th), self.halo(params),
                           pairs, (tiles_x, tiles_y), fallback)
        return self.cached_artifact("tiling", params, build)

    def execute(self, device: Device, buffers, params) -> DeviceArray:
        geo = self._tiling(params)
        width, height = geo.width, geo.height
        size = width * height
        pairs = geo.pairs
        compute, guard, fallback = self._fns(params)
        tw, th = geo.tile
        hx, hy = geo.halo
        sw, sh = tw + 2 * hx, th + 2 * hy
        tiles_x, tiles_y = geo.tiles
        out = device.alloc(size, dtype=np.float64, name=f"{self.name}.out")
        inbuf = buffers[IN]
        threads = self.threads
        staged = sw * sh

        def body(ctx):
            ty, tx = divmod(ctx.bx, tiles_x)
            x0 = tx * tw - hx
            y0 = ty * th - hy
            # Cooperative staging: threads stride over the staged region.
            s = ctx.tx
            while s < staged:
                sy, sx = divmod(s, sw)
                gy, gx = y0 + sy, x0 + sx
                if 0 <= gy < height and 0 <= gx < width:
                    ctx.sstore("tile", s, ctx.gload(inbuf, gy * width + gx))
                else:
                    ctx.sstore("tile", s, 0.0)
                s += threads
            yield SYNC
            # Each thread computes its cells of the tile.
            c = ctx.tx
            while c < tw * th:
                cy, cx = divmod(c, tw)
                gy, gx = ty * th + cy, tx * tw + cx
                if gy < height and gx < width:
                    i = gy * width + gx
                    interior = all(0 <= gy + dy < height
                                   and 0 <= gx + dx < width
                                   for dy, dx in pairs)
                    if guard is None:
                        ok = interior
                    else:
                        ok = guard(i) and interior
                    ly, lx = cy + hy, cx + hx
                    if ok:
                        vals = [ctx.sload("tile",
                                          (ly + dy) * sw + (lx + dx))
                                for dy, dx in pairs]
                        ctx.gstore(out, i, compute(*vals, i))
                    else:
                        center = ctx.sload("tile", ly * sw + lx)
                        if fallback is not None:
                            vals = [center] * len(pairs)
                            ctx.gstore(out, i, fallback(*vals, i))
                        else:
                            ctx.gstore(out, i, center)
                c += threads

        vcompute, _, vfallback = self._vfns(params)
        cells = tw * th
        # Tile rows and columns of every block, (tiles_y, tiles_x, ., .).
        ys = (np.arange(tiles_y) * th)[:, None, None, None]
        xs = (np.arange(tiles_x) * tw)[None, :, None, None]

        def vector_body(ctx):
            # Stage each block's halo tile: one window of rows of ``sw``
            # cells, ``width`` apart; cells off the image stage 0.0.
            stage = ctx.loop(staged, sw)
            gy = ys - hy + np.arange(sh)[:, None]
            gx = xs - hx + np.arange(sw)
            off = (((gy < 0) | (gy >= height))
                   | ((gx < 0) | (gx >= width))).reshape(stage.shape)
            v = stage.gload_window(inbuf, (ys - hy) * width + xs - hx,
                                   sw, width, ~off)
            np.copyto(v, 0.0, where=off)
            stage.sstore_window("tile", 0, v, sw)
            del v   # the staged copy is not live across the compute pass
            ctx.sync()
            # Every cell of the tile at once: each tap and the centre is
            # one window of the staged tile.
            loop = ctx.loop(cells, tw)
            gy = ys + np.arange(th)[:, None]
            gx = xs + np.arange(tw)
            cell = ((gy < height) & (gx < width)).reshape(loop.shape)
            elm = geo.fallback_mask().reshape(loop.shape)
            okm = cell & ~elm
            base = hy * sw + hx
            vals = [loop.sload_window("tile", base + dy * sw + dx, tw, sw,
                                      okm)
                    for dy, dx in pairs]
            center = loop.sload_window("tile", base, tw, sw, elm)
            i = None
            if self._reads_index:
                # Cells off the image are never stored: any index in the
                # image serves them.
                i = (np.minimum(gy, height - 1) * width
                     + np.minimum(gx, width - 1)).reshape(loop.shape)
            if vfallback is not None:
                center = vfallback(*([center] * len(pairs)), i)
            # The kernel's two stores: the computed cells, the others.
            origin = ys * width + xs
            loop.gstore_window(out, origin, vcompute(*vals, i), tw, width,
                               okm)
            loop.gstore_window(out, origin, center, tw, width, elm)

        kernel = Kernel(
            f"{self.name}_tiled", body, regs_per_thread=20,
            shared_spec={"tile": (staged, np.float64)},
            vector_body=vector_body)
        device.launch(kernel, tiles_x * tiles_y, threads,
                      {"in": inbuf, "out": out})
        return out

    def cuda_source(self) -> str:
        return f"""\
// {self.name}: super-tile stencil with halo staging
__global__ void {self.name}_tiled(const float* in, float* out,
                                  int width, int height,
                                  int tw, int th, int hx, int hy) {{
    extern __shared__ float tile[];
    int sw = tw + 2 * hx, sh = th + 2 * hy;
    int tiles_x = (width + tw - 1) / tw;
    int ty = blockIdx.x / tiles_x, tx = blockIdx.x % tiles_x;
    int x0 = tx * tw - hx, y0 = ty * th - hy;
    for (int s = threadIdx.x; s < sw * sh; s += blockDim.x) {{
        int gy = y0 + s / sw, gx = x0 + s % sw;
        tile[s] = (gy >= 0 && gy < height && gx >= 0 && gx < width)
                      ? in[gy * width + gx] : 0.0f;
    }}
    __syncthreads();
    for (int c = threadIdx.x; c < tw * th; c += blockDim.x) {{
        int cy = c / tw, cx = c % tw;
        int gy = ty * th + cy, gx = tx * tw + cx;
        if (gy < height && gx < width) {{
            /* compute from tile[(cy+hy+dy)*sw + (cx+hx+dx)] */
            out[gy * width + gx] = 0.0f;  /* generated per-pattern */
        }}
    }}
}}
"""
