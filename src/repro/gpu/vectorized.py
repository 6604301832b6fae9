"""Vectorized (array-at-a-time) kernel execution.

The reference executor interprets every thread as a Python coroutine —
exact, but the dominant cost of every test and figure driver.  Kernels whose
bodies are barrier-free or warp-synchronous straight-line code (the map,
transfer and per-phase reduce/stencil bodies the plan emitters produce) can
instead execute **all threads of the whole grid at once** as numpy
operations over index vectors: a :class:`VectorCtx` exposes ``tx``/``bx``
as broadcastable index arrays of shape ``(blocks, threads)`` and masked
load/store accessors with the same semantics as
:class:`~repro.gpu.kernel.ThreadCtx`.

Tracing does not force the slow path: :class:`VectorTracer` computes
per-warp transactions, coalesced fraction and bank conflicts directly from
the address arrays of each access (via the batch helpers in
:mod:`repro.gpu.memory`), using the exact same accounting as the
per-thread :class:`~repro.gpu.memory.MemoryTracer`.

Numeric contract: loads return ``float64`` arrays regardless of storage
dtype (the reference path's ``ThreadCtx`` loads widen to Python floats the
same way), so both paths do identical float64 arithmetic and produce
bit-identical buffers.
"""

from __future__ import annotations

import copy
import enum
from typing import Any, Dict, Optional

import numpy as np

from .arch import GPUSpec
from .kernel import Dim3
from .memory import (DeviceArray, SharedMemory, bank_conflict_cycles,
                     batch_bank_cycles, batch_transactions)


class ExecMode(str, enum.Enum):
    """Executor path selector for :meth:`Executor.launch` / :class:`Device`.

    A ``str`` subclass, so members compare equal to (and hash like) the
    ``"reference"`` / ``"vectorized"`` literals — equality checks and
    dict keys keyed by either spelling agree.
    """

    REFERENCE = "reference"
    VECTORIZED = "vectorized"

    def __str__(self) -> str:
        return self.value


#: Execution-mode flags (enum aliases; the historical string constants).
MODE_REFERENCE = ExecMode.REFERENCE
MODE_VECTORIZED = ExecMode.VECTORIZED
EXEC_MODES = (ExecMode.REFERENCE, ExecMode.VECTORIZED)


class VectorTracer:
    """Memory-system accounting over whole-launch address arrays.

    Every ``record_*`` call corresponds to one static access point of the
    kernel's vector body; the address array covers all (block, thread)
    lanes with ``mask`` marking the active ones.  Accounting is deferred:
    :meth:`finalize` first rebuilds the per-lane access streams (a lane's
    ``k``-th *active* call is that lane's ``k``-th access) and regroups
    them by (warp, position) — exactly the slots the per-thread
    :class:`~repro.gpu.memory.MemoryTracer` forms — then runs the batch
    helpers over all slots at once.  The regrouping is what keeps the two
    executors' statistics identical even under intra-warp divergence
    (different trip counts or branch-dependent access sequences): lanes
    that skipped an access slide up, exactly as the scalar tracer's
    per-thread event lists do.
    """

    def __init__(self, spec: GPUSpec):
        self.spec = spec
        self._records = {"global": [], "shared": []}
        self._finalized = False
        self.global_transactions = 0
        self.global_requests = 0
        self.coalesced_slots = 0
        self.shared_bank_conflicts = 0

    # -- recording -------------------------------------------------------
    def record_global(self, addresses: np.ndarray, mask: np.ndarray,
                      size: int) -> None:
        self._records["global"].append(
            (np.asarray(addresses, dtype=np.int64),
             np.asarray(mask, dtype=bool), int(size)))

    def record_shared(self, addresses: np.ndarray, mask: np.ndarray,
                      size: int) -> None:
        self._records["shared"].append(
            (np.asarray(addresses, dtype=np.int64),
             np.asarray(mask, dtype=bool), int(size)))

    # -- stream reconstruction -------------------------------------------
    def _slots(self, records):
        """Positional warp slots: (addresses, mask, sizes), ``(n, warp)``."""
        warp = self.spec.warp_size
        addrs = np.stack([r[0] for r in records])      # (calls, blocks, T)
        masks = np.stack([r[1] for r in records])
        call_sizes = np.asarray([r[2] for r in records], dtype=np.int64)
        calls, _blocks, threads = addrs.shape
        pad = (-threads) % warp
        if pad:
            addrs = np.pad(addrs, ((0, 0), (0, 0), (0, pad)))
            masks = np.pad(masks, ((0, 0), (0, 0), (0, pad)))
        addrs = addrs.reshape(calls, -1, warp)         # (calls, rows, warp)
        masks = masks.reshape(calls, -1, warp)
        if not masks.any():
            return None
        pos = np.cumsum(masks, axis=0) - masks         # exclusive prefix
        depth = int(pos[masks].max()) + 1
        rows_n = addrs.shape[1]
        addr = np.zeros((rows_n, depth, warp), dtype=np.int64)
        mask = np.zeros((rows_n, depth, warp), dtype=bool)
        sizes = np.zeros((rows_n, depth, warp), dtype=np.int64)
        c, r, lane = np.nonzero(masks)
        p = pos[c, r, lane]
        addr[r, p, lane] = addrs[c, r, lane]
        mask[r, p, lane] = True
        sizes[r, p, lane] = call_sizes[c]
        addr = addr.reshape(-1, warp)
        mask = mask.reshape(-1, warp)
        sizes = sizes.reshape(-1, warp)
        active = mask.any(axis=1)
        return addr[active], mask[active], sizes[active]

    # -- accounting ------------------------------------------------------
    def finalize(self) -> None:
        """Regroup the recorded streams and compute the launch counters."""
        if self._finalized:
            return
        self._finalized = True
        seg = self.spec.coalesced_bytes_per_txn
        if self._records["global"]:
            slots = self._slots(self._records["global"])
            if slots is not None:
                addr, mask, sizes = slots
                txns = batch_transactions(addr, mask, seg)
                self.global_transactions = int(txns.sum())
                self.global_requests = int(addr.shape[0])
                footprint = (sizes * mask).sum(axis=1)
                minimal = np.maximum(1, -(-footprint // seg))
                self.coalesced_slots = int((txns <= minimal).sum())
        if self._records["shared"]:
            slots = self._slots(self._records["shared"])
            if slots is not None:
                self.shared_bank_conflicts = self._bank_cycles(*slots)
        self._records = {"global": [], "shared": []}

    def _bank_cycles(self, addr, mask, sizes) -> int:
        banks = self.spec.shared_mem_banks
        warp = self.spec.warp_size
        distinct = np.unique(sizes[mask])
        if distinct.size == 1:
            cycles = batch_bank_cycles(addr, mask, int(distinct[0]),
                                       banks, warp)
            return int(cycles.sum())
        # Mixed element widths across slots (rare): per-slot scalar helper.
        total = 0
        for row in range(addr.shape[0]):
            lanes = np.nonzero(mask[row])[0]
            total += bank_conflict_cycles(
                addr[row, lanes].tolist(), banks,
                sizes=sizes[row, lanes].tolist(),
                lanes=lanes.tolist(), warp_size=warp)
        return total

    @property
    def coalesced_fraction(self) -> float:
        if self.global_requests == 0:
            return 1.0
        return self.coalesced_slots / self.global_requests


class VectorCtx:
    """Whole-grid execution context for ``Kernel.vector_body`` callables.

    Index builtins are integer arrays broadcastable to ``(blocks,
    threads)``; every accessor takes an optional boolean ``mask`` naming the
    active lanes (inactive lanes neither touch memory nor reach the
    tracer — their load results are the clamped-to-0 element and must be
    discarded with ``np.where``).  Restricted to 1-D grids and blocks; the
    executor falls back to the reference interpreter otherwise.

    Each accessor costs one 1-D gather or scatter.  Shared memory is one
    ``(blocks, size)`` array per name, reached through a flat view at
    ``base + index``, ``base`` being the lane's block row (``bx * size``,
    fixed per launch).  The bounds rule is ``ThreadCtx``'s: an index past
    the row raises ``IndexError`` and a negative one counts from the
    row's end, so no lane reaches a neighbouring block's row.

    :meth:`lanes` narrows the context to a thread prefix of every block
    (a shared-memory tree step's live lanes), so a body pays only for the
    lanes that work.
    """

    #: On a :meth:`lanes` view, the launch's whole-block context, which
    #: counts the barriers.  Never the context itself: that reference
    #: cycle would keep each launch's arrays alive until a GC pass.
    _launch: Optional["VectorCtx"] = None

    def __init__(self, grid: Dim3, block: Dim3, args: Dict[str, Any],
                 shared_spec: Dict[str, Any],
                 tracer: Optional[VectorTracer]):
        self.nblocks = grid.count
        self.threads = block.count
        self.shape = (self.nblocks, self.threads)
        self.gdim = grid
        self.bdim = block
        self.args = args
        self.tx = np.arange(self.threads, dtype=np.int64)[None, :]
        self.bx = np.arange(self.nblocks, dtype=np.int64)[:, None]
        self.global_tid = self.bx * self.threads + self.tx
        self._tracer = tracer
        self.barriers = 0
        # Per-block shared arrays as rows of one 2-D array per name; a
        # prototype SharedMemory supplies the byte offsets every block
        # shares, so traced addresses match the reference path.
        self._smem = SharedMemory(
            {name: (size, dtype)
             for name, (size, dtype) in (shared_spec or {}).items()})
        self.shared = {name: np.zeros((self.nblocks, arr.shape[0]),
                                      dtype=arr.dtype)
                       for name, arr in self._smem.arrays.items()}
        # name -> (flat view, per-block row base, row size)
        self._flat = {name: (array.reshape(-1), self.bx * array.shape[1],
                             array.shape[1])
                      for name, array in self.shared.items()}

    # -- builtins --------------------------------------------------------
    def sync(self) -> None:
        """A ``__syncthreads`` of every block (numpy ops are already
        block-synchronous; this only keeps the launch's barrier count)."""
        (self._launch or self).barriers += self.nblocks

    def full(self, value, dtype=np.float64) -> np.ndarray:
        return np.full(self.shape, value, dtype=dtype)

    def lanes(self, n: int) -> "VectorCtx":
        """The first ``n`` threads of every block as a ``(blocks, n)``
        context over the same global and shared memory.

        ``tx`` and ``global_tid`` are the prefix's; ``bx`` and
        ``threads`` stay the launch's.  Accessors keep the bounds rule,
        ``sync`` counts on the launch, and a traced access is recorded
        over the whole block with the lanes past ``n`` masked off, as a
        ``tx < n`` mask would record it.
        """
        launch = self._launch or self
        if not 1 <= n <= launch.threads:
            raise ValueError(f"lanes({n}): a block has 1 to "
                             f"{launch.threads} lanes")
        if n == launch.threads:
            return launch
        view = copy.copy(launch)
        view._launch = launch
        view.shape = (launch.nblocks, n)
        view.tx = launch.tx[:, :n]
        view.global_tid = launch.global_tid[:, :n]
        return view

    # -- helpers ---------------------------------------------------------
    def _index(self, index, mask):
        """``(index, mask)`` as arrays of this context's shape; inactive
        lanes get index 0."""
        idx = np.asarray(index, dtype=np.int64)
        if mask is None:
            return np.broadcast_to(idx, self.shape), None
        m = np.broadcast_to(np.asarray(mask, dtype=bool), self.shape)
        return np.where(m, idx, 0), m

    def _record(self, record, addresses, m, size) -> None:
        """Hand one access to the tracer over the whole block; lanes
        masked off or past this view are inactive."""
        lanes = self.shape[1]
        mask = np.zeros((self.nblocks, self.threads), dtype=bool)
        mask[:, :lanes] = True if m is None else m
        if lanes < self.threads:
            padded = np.zeros(mask.shape, dtype=np.int64)
            padded[:, :lanes] = addresses
            addresses = padded
        record(addresses, mask, size)

    def _scatter(self, target: np.ndarray, idx, value, m) -> None:
        value = np.broadcast_to(np.asarray(value), self.shape)
        if m is None:
            target[idx.ravel()] = value.ravel()
        else:
            target[idx[m]] = value[m]

    # -- global memory ---------------------------------------------------
    def _global(self, array: DeviceArray, index, mask):
        idx, m = self._index(index, mask)
        if self._tracer is not None:
            self._record(self._tracer.record_global,
                         array.base + idx * array.itemsize, m,
                         array.itemsize)
        return idx, m

    def gload(self, array: DeviceArray, index, mask=None) -> np.ndarray:
        idx, _ = self._global(array, index, mask)
        return array.data[idx].astype(np.float64, copy=False)

    def gstore(self, array: DeviceArray, index, value, mask=None) -> None:
        idx, m = self._global(array, index, mask)
        self._scatter(array.data, idx, value, m)

    # -- shared memory ---------------------------------------------------
    def _shared(self, name: str, index, mask):
        """Flat view of ``name``, each lane's flat index into it, mask."""
        idx, m = self._index(index, mask)
        flat, base, size = self._flat[name]
        if self._tracer is not None:
            self._record(self._tracer.record_shared,
                         self._smem.byte_offset(name) + idx * flat.itemsize,
                         m, flat.itemsize)
        lo, hi = idx.min(), idx.max()
        if lo < -size or hi >= size:
            raise IndexError(f"indices [{lo}, {hi}] are out of bounds for "
                             f"shared array {name!r} of size {size}")
        if lo < 0:
            idx = np.where(idx < 0, idx + size, idx)
        return flat, base + idx, m

    def sload(self, name: str, index, mask=None) -> np.ndarray:
        flat, idx, _ = self._shared(name, index, mask)
        return flat[idx].astype(np.float64, copy=False)

    def sstore(self, name: str, index, value, mask=None) -> None:
        flat, idx, m = self._shared(name, index, mask)
        self._scatter(flat, idx, value, m)
