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
import functools
import itertools
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
    kernel's vector body (one per trip of a whole-loop access); the
    address array covers all (block, thread) lanes with ``mask`` marking
    the active ones.  Accounting is deferred:
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
        # A run is a stretch of accesses made in one order by every lane;
        # a run of whole-loop accesses is re-ordered trip-major.
        self._run = 0
        self._loop = None
        self.global_transactions = 0
        self.global_requests = 0
        self.coalesced_slots = 0
        self.shared_bank_conflicts = 0

    # -- recording -------------------------------------------------------
    def record_global(self, addresses: np.ndarray, mask: np.ndarray,
                      size: int, loop=None) -> None:
        self._record("global", addresses, mask, size, loop)

    def record_shared(self, addresses: np.ndarray, mask: np.ndarray,
                      size: int, loop=None) -> None:
        self._record("shared", addresses, mask, size, loop)

    def _record(self, space, addresses, mask, size, loop) -> None:
        """Append one access, ``(blocks, threads)`` arrays; with ``loop``
        (the id of a whole-loop view) ``(blocks, trips, threads)`` arrays,
        one record per trip.

        Consecutive accesses on one loop, with no barrier between them,
        are one run of the kernel's loop: :meth:`finalize` puts its
        records trip-major, the order each thread issues them in.
        """
        if loop is None or loop != self._loop:
            self._run += 1
        self._loop = loop
        addresses = np.asarray(addresses, dtype=np.int64)
        mask = np.asarray(mask, dtype=bool)
        records = self._records[space]
        if loop is None:
            records.append(((self._run, 0), addresses, mask, int(size)))
            return
        for trip in range(addresses.shape[1]):
            records.append(((self._run, trip), addresses[:, trip],
                            mask[:, trip], int(size)))

    def barrier(self) -> None:
        """A ``__syncthreads``: no loop run continues across it."""
        self._loop = None

    # -- stream reconstruction -------------------------------------------
    def _slots(self, records):
        """Positional warp slots: (addresses, mask, sizes), ``(n, warp)``."""
        warp = self.spec.warp_size
        records = sorted(records, key=lambda r: r[0])  # stable: trip-major
        addrs = np.stack([r[1] for r in records])      # (calls, blocks, T)
        masks = np.stack([r[2] for r in records])
        call_sizes = np.asarray([r[3] for r in records], dtype=np.int64)
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


#: Ids of :meth:`VectorCtx.loop` views, unique in the process.
_LOOP_IDS = itertools.count()


class VectorCtx:
    """Whole-grid execution context for ``Kernel.vector_body`` callables.

    Index builtins are integer arrays broadcastable to ``(blocks,
    threads)``; every accessor takes an optional boolean ``mask`` naming the
    active lanes (inactive lanes neither write memory nor reach the
    tracer — their load results are unspecified and must be discarded
    with ``np.where``).  Restricted to 1-D grids and blocks; the
    executor falls back to the reference interpreter otherwise.

    Each index accessor costs one 1-D gather or scatter, each window one
    strided copy.  Shared memory is one ``(blocks, size)`` array per
    name, reached through a flat view at ``bx * size + index``.  The
    bounds rule is ``ThreadCtx``'s: an index past the row raises
    ``IndexError`` and a negative one counts from the row's end, so no
    lane reaches a neighbouring block's row.

    :meth:`lanes` narrows the context to a thread prefix of every block
    (a shared-memory tree step's live lanes), so a body pays only for the
    lanes that work; :meth:`loop` widens it to every trip of a block's
    cooperative loop.  :meth:`sload_window` and :meth:`sstore_window`
    reach shared memory through a window — lanes in rows of ``cols``,
    ``stride`` elements apart — as one basic slice of the name's array,
    with no index array; :meth:`gload_window` and :meth:`gstore_window`
    do the same from a per-block origin in global memory.
    """

    #: On a :meth:`lanes` or :meth:`loop` view, the launch's whole-block
    #: context, which counts the barriers.  Never the context itself:
    #: that reference cycle would keep each launch's arrays alive until a
    #: GC pass.
    _launch: Optional["VectorCtx"] = None
    #: On a :meth:`loop` view of more than one trip, the loop's id.
    _loop_id: Optional[int] = None

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
        # name -> (flat view, row size)
        self._flat = {name: (array.reshape(-1), array.shape[1])
                      for name, array in self.shared.items()}
        # Names some loaded window still views (:meth:`sload_window`).
        self._lent = set()

    @functools.cached_property
    def global_tid(self) -> np.ndarray:
        """``bx * threads`` plus the index of the lane's thread."""
        return self.bx * self.threads + self.tx % self.threads

    # -- builtins --------------------------------------------------------
    def sync(self) -> None:
        """A ``__syncthreads`` of every block (numpy ops are already
        block-synchronous; this only keeps the launch's barrier count)."""
        (self._launch or self).barriers += self.nblocks
        if self._tracer is not None:
            self._tracer.barrier()

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
        return launch._view((n,), launch.tx[:, :n])

    def loop(self, n: int, cols: Optional[int] = None) -> "VectorCtx":
        """The block's cooperative loop ``for (s = tx; s < n; s +=
        blockDim)`` as one context: lane ``s`` is trip ``s // threads``
        of thread ``s % threads``.

        Lanes are ``(blocks, n)``, or ``(blocks, n // cols, cols)``
        with ``cols`` (which must divide ``n``), so that a window of
        ``cols`` columns loads without a copy (:meth:`sload_window`).
        ``tx`` is the loop index ``s`` in the lane layout and ``bx``
        broadcasts against it.  Accessors and ``sync`` act as on a
        :meth:`lanes` view.  A traced access records one access per
        trip, padded to the block; the accesses of one loop up to a
        barrier or an access elsewhere are ordered trip-major, the order
        each thread issues them in.
        """
        launch = self._launch or self
        if n < 1 or cols is not None and (cols < 1 or n % cols):
            raise ValueError(f"loop({n}, {cols}): a loop runs at least one "
                             "lane, in rows of columns that divide them")
        if cols is None and n <= launch.threads:
            return launch.lanes(n)
        layout = (n,) if cols is None else (n // cols, cols)
        view = launch._view(
            layout, np.arange(n, dtype=np.int64).reshape((1,) + layout))
        view.bx = launch.bx.reshape((-1,) + (1,) * len(layout))
        if n > launch.threads:
            view._loop_id = next(_LOOP_IDS)
        return view

    def _view(self, layout, tx) -> "VectorCtx":
        """A view of this launch over the same memory, lanes ``layout``."""
        view = copy.copy(self)
        view.__dict__.pop("global_tid", None)
        view._launch = self
        view.shape = (self.nblocks,) + layout
        view.tx = tx
        return view

    # -- helpers ---------------------------------------------------------
    def _lanewise(self, value, dtype=None) -> np.ndarray:
        """``value`` as an array of this context's shape."""
        value = np.asarray(value, dtype=dtype)
        if value.shape == self.shape:
            return value
        return np.broadcast_to(value, self.shape)

    def _index(self, index, mask):
        """``(index, mask)`` as arrays of this context's shape; inactive
        lanes get index 0."""
        idx = self._lanewise(index, np.int64)
        if mask is None:
            return idx, None
        m = self._lanewise(mask, bool)
        return np.where(m, idx, 0), m

    def _record(self, record, addresses, m, size) -> None:
        """Hand one access to the tracer over the whole block (per trip
        on a loop view); lanes masked off or past this view are
        inactive."""
        lanes = self.tx.size
        trips = -(-lanes // self.threads)
        mask = np.zeros((self.nblocks, trips * self.threads), dtype=bool)
        mask[:, :lanes] = True if m is None else m.reshape(self.nblocks, -1)
        addresses = addresses.reshape(self.nblocks, -1)
        if lanes < mask.shape[1]:
            padded = np.zeros(mask.shape, dtype=np.int64)
            padded[:, :lanes] = addresses
            addresses = padded
        if self._loop_id is None:
            record(addresses, mask, size)
            return
        by_trip = (self.nblocks, trips, self.threads)
        record(addresses.reshape(by_trip), mask.reshape(by_trip), size,
               self._loop_id)

    def _put(self, window, value, mask) -> None:
        """Store lanes ``value`` into ``window``, a view shaped as the
        lanes; masked-off lanes write nothing."""
        value = self._lanewise(value).reshape(window.shape)
        if mask is None:
            window[...] = value
        else:
            np.copyto(window, value, casting="unsafe",
                      where=self._lanewise(mask, bool).reshape(window.shape))

    def _scatter(self, target: np.ndarray, idx, value, m) -> None:
        value = self._lanewise(value)
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
    def _trace_shared(self, name: str, idx, m) -> None:
        itemsize = self.shared[name].itemsize
        self._record(self._tracer.record_shared,
                     self._smem.byte_offset(name) + idx * itemsize,
                     m, itemsize)

    def _shared(self, name: str, index, mask):
        """Flat view of ``name``, each lane's flat index into it, mask."""
        idx, m = self._index(index, mask)
        flat, size = self._flat[name]
        if self._tracer is not None:
            self._trace_shared(name, idx, m)
        # An unmasked index is scanned before its broadcast: once per
        # lane, not once per block and lane.
        scan = np.asarray(index) if m is None else idx
        lo, hi = scan.min(), scan.max()
        if lo < -size or hi >= size:
            raise IndexError(f"indices [{lo}, {hi}] are out of bounds for "
                             f"shared array {name!r} of size {size}")
        if lo < 0:
            idx = np.where(idx < 0, idx + size, idx)
        return flat, self.bx * size + idx, m

    def _own(self, name: str) -> None:
        """Before a store: give ``name`` fresh storage if a loaded
        window still views it, so the store leaves loaded values be."""
        if name in self._lent:
            self._lent.discard(name)
            array = self.shared[name] = self.shared[name].copy()
            self._flat[name] = (array.reshape(-1), array.shape[1])

    def sload(self, name: str, index, mask=None) -> np.ndarray:
        flat, idx, _ = self._shared(name, index, mask)
        return flat[idx].astype(np.float64, copy=False)

    def sstore(self, name: str, index, value, mask=None) -> None:
        self._own(name)
        flat, idx, m = self._shared(name, index, mask)
        self._scatter(flat, idx, value, m)

    # -- shared windows --------------------------------------------------
    def _rows(self, cols, stride, overlap=False):
        """``(cols, stride, rows)`` of a window over this context's
        lanes: rows of ``cols`` lanes (default: one row of every lane),
        ``stride`` elements apart.  Rows may overlap only if
        ``overlap``."""
        lanes = self.tx.size
        cols = lanes if cols is None else cols
        stride = cols if stride is None else stride
        least = 0 if overlap else cols
        if cols < 1 or lanes % cols or stride < least:
            raise ValueError(
                f"a window of {cols} columns {stride} apart needs columns "
                f"that divide the {lanes} lanes and a stride of at least "
                f"{least}")
        return cols, stride, lanes // cols

    def _window(self, name: str, offset: int, cols, stride, mask):
        """``(window, None)``, the window as a ``(blocks, rows, cols)``
        basic slice of ``name``'s array, or ``(None, index)`` when the
        access takes the index path at ``index``.

        The slice is cut from each block's row viewed as rows of
        ``stride`` elements.  A window that leaves the row, crosses one
        of those rows or ends past the last whole one takes the index
        path.  A traced window records the index path's access.
        """
        cols, stride, rows = self._rows(cols, stride)
        array = self.shared[name]
        size = array.shape[1]
        if rows == 1:
            stride = size       # one run: cut it from the whole row
        r0, c0 = divmod(offset, stride)
        fits = (0 <= offset and c0 + cols <= stride
                and (r0 + rows) * stride <= size)
        if not fits or self._tracer is not None:
            index = offset + (self.tx // cols) * stride + self.tx % cols
            if not fits:
                return None, index
            self._trace_shared(name, *self._index(index, mask))
        grid = array[:, :size - size % stride].reshape(
            self.nblocks, -1, stride)
        return grid[:, r0:r0 + rows, c0:c0 + cols], None

    def sload_window(self, name: str, offset: int,
                     cols: Optional[int] = None,
                     stride: Optional[int] = None,
                     mask=None) -> np.ndarray:
        """``sload(name, offset + (tx // cols) * stride + tx % cols,
        mask)`` as one strided copy: the lanes form rows of ``cols``
        (default: one row of every lane), ``stride`` elements apart.

        ``cols`` must divide the lane count and ``stride`` be at least
        ``cols`` (``ValueError`` otherwise).  The bounds rule, the
        traced records and the active lanes' values are :meth:`sload`'s
        (masked-off lanes hold unspecified values).  The result holds
        the values at the load: on a :meth:`loop` view whose rows are
        the window's, a float64 window is a read-only view of shared
        memory, which a later store first moves to fresh storage;
        otherwise it is a fresh ``float64`` array.
        """
        window, index = self._window(name, offset, cols, stride, mask)
        if window is None:
            return self.sload(name, index, mask)
        if window.shape != self.shape or window.dtype != np.float64:
            return window.astype(np.float64).reshape(self.shape)
        self._lent.add(name)
        window = window.view()
        window.flags.writeable = False
        return window

    def sstore_window(self, name: str, offset: int, value,
                      cols: Optional[int] = None,
                      stride: Optional[int] = None, mask=None) -> None:
        """``sstore(name, offset + (tx // cols) * stride + tx % cols,
        value, mask)`` as one slice assignment; the window is
        :meth:`sload_window`'s, and masked-off lanes write nothing."""
        self._own(name)
        window, index = self._window(name, offset, cols, stride, mask)
        if window is None:
            self.sstore(name, index, value, mask)
            return
        self._put(window, value, mask)

    # -- global windows --------------------------------------------------
    def _global_window(self, array: DeviceArray, origin, cols, stride,
                       mask):
        """``(window, None, copy)``: the window as a ``(gy, gx, rows,
        cols)`` strided view of ``array``'s data (``copy`` is None) or of
        a zero-padded copy of it (``copy`` is the copied span); or
        ``(None, index, None)`` when the access takes the index path at
        ``index``.

        The view exists when the block origins form a grid
        (:func:`_block_grid`).  A window that leaves the array takes the
        index path unless a mask keeps every lane outside it inactive;
        then the view is cut from a zero-padded copy.  A traced window
        records the index path's access.
        """
        cols, stride, rows = self._rows(cols, stride, overlap=True)
        origin = np.asarray(origin, dtype=np.int64).reshape(-1)
        if origin.size != self.nblocks:
            origin = np.broadcast_to(origin, (self.nblocks,))
        size = array.data.size
        span = (rows - 1) * stride + cols
        grid = _block_grid(origin)
        # With non-negative steps, the first and last blocks' windows
        # bound the others.
        lo, hi = int(origin[0]), int(origin[-1]) + span
        offsets = None
        if grid is not None and (lo < 0 or hi > size):
            # Only a block that leaves the array has lanes outside it,
            # and they must all be masked off.
            edge = (origin < 0) | (origin + span > size)
            offsets = (self.tx // cols) * stride + self.tx % cols
            index = origin[edge].reshape(-1, *self.bx.shape[1:]) + offsets
            if mask is None or (self._lanewise(mask, bool)[edge]
                                & ((index < 0) | (index >= size))).any():
                grid = None
        if grid is None or self._tracer is not None:
            if offsets is None:
                offsets = (self.tx // cols) * stride + self.tx % cols
            index = origin.reshape(self.bx.shape) + offsets
            if grid is None:
                return None, index, None
            self._global(array, index, mask)
        buffer, pad, copied = array.data, max(0, -lo), None
        if lo < 0 or hi > size:
            buffer = np.zeros(pad + max(size, hi), dtype=array.data.dtype)
            copied = buffer[pad:pad + size]
            copied[...] = array.data
        gy, gx, sy, sx = grid
        item = buffer.itemsize
        window = np.ndarray((gy, gx, rows, cols), buffer.dtype, buffer,
                            (pad + lo) * item,
                            (sy * item, sx * item, stride * item, item))
        return window, None, copied

    def gload_window(self, array: DeviceArray, origin, cols=None,
                     stride=None, mask=None) -> np.ndarray:
        """``gload(array, origin[bx] + (tx // cols) * stride + tx % cols,
        mask)`` as one strided copy: each block's lanes form rows of
        ``cols`` (default: one row of every lane), ``stride`` elements
        apart, from the block's ``origin`` (one per block, or one for
        all).

        ``cols`` must divide the lane count (``ValueError`` otherwise);
        rows may overlap.  Active lanes keep :meth:`gload`'s bounds
        rule; masked-off lanes hold unspecified values and may lie
        outside the array.  The traced records are :meth:`gload`'s, and
        the result is a fresh ``float64`` array.
        """
        window, index, _ = self._global_window(array, origin, cols, stride,
                                               mask)
        if window is None:
            return self.gload(array, index, mask)
        return window.astype(np.float64, order="C").reshape(self.shape)

    def gstore_window(self, array: DeviceArray, origin, value, cols=None,
                      stride=None, mask=None) -> None:
        """``gstore(array, origin[bx] + (tx // cols) * stride + tx %
        cols, value, mask)`` as one strided assignment; the window is
        :meth:`gload_window`'s, and masked-off lanes write nothing."""
        window, index, copied = self._global_window(array, origin, cols,
                                                    stride, mask)
        if window is None:
            self.gstore(array, index, value, mask)
            return
        self._put(window, value, mask)
        if copied is not None:
            array.data[...] = copied


def _block_grid(origin: np.ndarray):
    """``(gy, gx, sy, sx)`` with ``origin[b] == origin[0] + (b // gx) *
    sy + (b % gx) * sx`` for every block ``b`` and both steps
    non-negative (a tile grid, or a row of blocks), else ``None``."""
    blocks = origin.shape[0]
    if blocks == 1:
        return 1, 1, 0, 0
    steps = origin[1:] - origin[:-1]
    sx = int(steps[0])
    # The first step that differs ends the first row of blocks.
    gx = int((steps != sx).argmax()) + 1
    if gx == 1:
        gx = blocks
    if blocks % gx:
        return None
    sy = int(origin[gx] - origin[0]) if gx < blocks else 0
    # Within a row the step is sx; from a row's end to the next row's
    # start it is sy - (gx - 1) * sx.
    expect = np.full(blocks - 1, sx, dtype=np.int64)
    expect[gx - 1::gx] = sy - (gx - 1) * sx
    if sx < 0 or sy < 0 or not (steps == expect).all():
        return None
    return blocks // gx, gx, sy, sx
