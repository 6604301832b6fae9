"""Device memory objects and memory-system instrumentation.

The substrate models the two memories the paper's optimizations target:

* **Global (off-chip) memory** — per-warp accesses are *coalesced* when all
  addresses of a warp fall into aligned segments; each distinct segment
  touched costs one transaction (Fermi: 128-byte segments).
* **Shared (on-chip) memory** — banked; threads of a warp hitting distinct
  4-byte words in the same bank serialize (*bank conflicts*).  Elements wider
  than a bank word span consecutive banks, and — as on Fermi — a warp slot
  containing any such wide access is issued as two half-warp requests.

Kernels executed functionally can run with a :class:`MemoryTracer` attached;
the tracer records every thread's access stream and, because all threads of a
warp execute the same kernel code, the *k*-th access of each thread in a warp
corresponds to the same static access point.  Grouping by (warp, position)
reconstructs the per-warp transaction and bank-conflict counts that the
performance model consumes.

All addresses recorded in :class:`AccessEvent` are **byte** addresses — for
global memory relative to the notional device address space, for shared
memory relative to the block's shared segment.  The batch helpers
(:func:`batch_transactions`, :func:`batch_bank_cycles`) implement the same
accounting over whole ``(warp_rows, lanes)`` address arrays so the vectorized
executor can trace without falling back to per-thread interpretation.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Notional alignment between distinct device allocations, so that segment
#: arithmetic never merges accesses from different arrays.
_ALLOC_ALIGN = 1 << 20

#: Width of one shared-memory bank word in bytes (Fermi/GT200: 4).
BANK_WORD_BYTES = 4


class DeviceArray:
    """A flat device-global allocation.

    Wraps a 1-D numpy array and carries a notional base address so the
    coalescing analysis can reason about byte addresses.  Multidimensional
    data is stored flattened; layout decisions (the whole point of memory
    restructuring) are explicit index arithmetic in kernel code.
    """

    _next_base = _ALLOC_ALIGN
    _base_lock = threading.Lock()

    def __init__(self, data: np.ndarray, name: str = "buf"):
        self.data = np.ascontiguousarray(data).reshape(-1)
        self.name = name
        self.itemsize = self.data.itemsize
        with DeviceArray._base_lock:
            self.base = DeviceArray._next_base
            DeviceArray._next_base += _ALLOC_ALIGN * (
                1 + (self.data.nbytes // _ALLOC_ALIGN))

    @classmethod
    def reset_base_allocator(cls) -> None:
        """Rewind the notional address space.

        Test hook: long-lived sessions allocate monotonically increasing
        bases; resetting between independent launches keeps addresses small
        and runs reproducible.  Never call while arrays from the previous
        epoch are still being traced — their addresses would overlap new
        allocations.
        """
        with cls._base_lock:
            cls._next_base = _ALLOC_ALIGN

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def address_of(self, index: int) -> int:
        return self.base + int(index) * self.itemsize

    def to_host(self) -> np.ndarray:
        """Copy device contents back to the host (device-to-host memcpy)."""
        return self.data.copy()

    def __repr__(self) -> str:
        return f"DeviceArray({self.name!r}, n={len(self)}, dtype={self.dtype})"


class BufferArena:
    """Size-and-dtype-bucketed free lists of :class:`DeviceArray` buffers.

    The warm serving path allocates the same buffer sizes run after run;
    recycling them through an arena makes the Nth run (amortized)
    allocation-free.  Buckets match on exact ``(nelements, dtype)`` so a
    recycled buffer is indistinguishable from a fresh one; recycled
    buffers are zero-filled on acquire because kernels with masked lanes
    may legitimately skip stores (fresh allocations are zeroed too, so
    warm and cold outputs stay bit-identical).

    Not thread-safe by design: each :class:`Device` owns its own arena,
    and a program runs its items one at a time on its device.
    """

    def __init__(self) -> None:
        self._free: Dict[Tuple[int, np.dtype], List[DeviceArray]] = {}
        #: Buffers handed out from a free list.
        self.hits = 0
        #: Buffers that had to be freshly allocated.
        self.misses = 0
        #: Buffers returned for reuse.
        self.released = 0

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._free.values())

    def acquire(self, size: int, dtype=np.float64,
                name: str = "buf") -> DeviceArray:
        """A zero-filled device buffer of exactly ``size`` elements."""
        key = (int(size), np.dtype(dtype))
        bucket = self._free.get(key)
        if bucket:
            array = bucket.pop()
            array.data.fill(0)
            array.name = name
            self.hits += 1
            return array
        self.misses += 1
        return DeviceArray(np.zeros(int(size), dtype=dtype), name=name)

    def release(self, array: DeviceArray) -> None:
        """Return a buffer to its free list (contents become undefined)."""
        key = (len(array), array.dtype)
        self._free.setdefault(key, []).append(array)
        self.released += 1

    def clear(self) -> None:
        """Drop every pooled buffer (and the hit/miss accounting)."""
        self._free.clear()
        self.hits = self.misses = self.released = 0


@dataclasses.dataclass
class AccessEvent:
    """One thread-level memory access recorded by the tracer."""

    space: str        # "global" | "shared"
    address: int      # byte address (global: device space; shared: in-block)
    is_store: bool
    size: int = 4     # bytes accessed (element size)


class MemoryTracer:
    """Collects per-thread access streams for one kernel launch."""

    def __init__(self) -> None:
        # (block_linear, thread_linear) -> list of events
        self.streams: Dict[Tuple[int, int], List[AccessEvent]] = {}

    def record(self, block: int, thread: int, event: AccessEvent) -> None:
        self.streams.setdefault((block, thread), []).append(event)

    # ------------------------------------------------------------------
    def _warp_slots_with_lanes(
        self, warp_size: int, space: str
    ) -> Iterable[Tuple[List[int], List[AccessEvent]]]:
        """Yield ``(lanes, events)`` per (warp, access-position).

        Threads in a warp are the ``warp_size`` consecutive thread-linear ids
        of the same block; each event carries the issuing thread's lane
        (``thread_linear % warp_size``) so request splitting can reason about
        half-warps.  Positions where only a subset of the warp issued an
        access (divergence) yield shorter lists.
        """
        by_warp: Dict[Tuple[int, int],
                      List[Tuple[int, List[AccessEvent]]]] = {}
        for (block, thread), events in sorted(self.streams.items()):
            filtered = [e for e in events if e.space == space]
            key = (block, thread // warp_size)
            by_warp.setdefault(key, []).append(
                (thread % warp_size, filtered))
        for streams in by_warp.values():
            depth = max(len(s) for _, s in streams)
            for pos in range(depth):
                lanes = [lane for lane, s in streams if pos < len(s)]
                slot = [s[pos] for _, s in streams if pos < len(s)]
                if slot:
                    yield lanes, slot

    def warp_access_slots(
        self, warp_size: int, space: str
    ) -> Iterable[List[AccessEvent]]:
        """Yield, for every (warp, access-position), the events of the warp."""
        for _, slot in self._warp_slots_with_lanes(warp_size, space):
            yield slot

    # ------------------------------------------------------------------
    def global_transactions(self, warp_size: int, segment_bytes: int) -> int:
        """Total global-memory transactions across the launch."""
        total = 0
        for slot in self.warp_access_slots(warp_size, "global"):
            total += coalesce_transactions(
                [e.address for e in slot], segment_bytes)
        return total

    def global_requests(self, warp_size: int) -> int:
        """Number of per-warp global access slots (memory instructions)."""
        return sum(1 for _ in self.warp_access_slots(warp_size, "global"))

    def coalesced_fraction(self, warp_size: int, segment_bytes: int) -> float:
        """Fraction of warp-level accesses with no wasted transactions.

        A slot is coalesced when the transactions it needs equal the
        minimum for its total byte footprint — e.g. 32 consecutive
        float64 loads take two 128-byte transactions but waste nothing.
        """
        slots = list(self.warp_access_slots(warp_size, "global"))
        if not slots:
            return 1.0
        coalesced = 0
        for slot in slots:
            txns = coalesce_transactions([e.address for e in slot],
                                         segment_bytes)
            footprint = sum(e.size for e in slot)
            minimal = max(1, -(-footprint // segment_bytes))
            if txns <= minimal:
                coalesced += 1
        return coalesced / len(slots)

    def shared_bank_conflicts(self, warp_size: int, banks: int,
                              word_bytes: int = BANK_WORD_BYTES) -> int:
        """Total *extra* shared-memory cycles lost to bank conflicts."""
        total = 0
        for lanes, slot in self._warp_slots_with_lanes(warp_size, "shared"):
            total += bank_conflict_cycles(
                [e.address for e in slot], banks, word_bytes,
                sizes=[e.size for e in slot], lanes=lanes,
                warp_size=warp_size)
        return total


def coalesce_transactions(addresses: Sequence[int], segment_bytes: int) -> int:
    """Number of memory transactions needed to serve a warp's addresses.

    Models the Fermi/GT200 coalescer: the addresses are mapped to aligned
    ``segment_bytes`` segments and each distinct segment costs one
    transaction.  Accepts any sequence or numpy array of byte addresses.
    """
    addr = np.asarray(addresses, dtype=np.int64)
    if addr.size == 0:
        return 0
    return int(np.unique(addr // segment_bytes).size)


# ---------------------------------------------------------------------------
# Shared-memory bank model.
#
# Banks are BANK_WORD_BYTES wide.  An element of size <= word_bytes occupies
# one word; wider elements span ceil(size / word_bytes) consecutive words
# (and therefore consecutive banks).  Threads reading the *same* word
# broadcast; distinct words mapped to the same bank serialize.  A warp slot
# in which any access is wider than a bank word is issued as two half-warp
# requests (Fermi's 64-bit shared-access rule), which is why consecutive
# float64 accesses stay conflict-free: each half-warp's 32 words cover all
# 32 banks exactly once.
# ---------------------------------------------------------------------------

def _bank_requests(addresses: Sequence[int], sizes: Sequence[int],
                   lanes: Sequence[int], warp_size: int,
                   word_bytes: int) -> List[List[Tuple[int, int]]]:
    """Partition a warp slot into hardware requests of (address, size)."""
    accesses = list(zip(lanes, addresses, sizes))
    if not accesses:
        return []
    if max(sizes) <= word_bytes:
        return [[(a, s) for _, a, s in accesses]]
    half = warp_size // 2
    lo = [(a, s) for lane, a, s in accesses if lane < half]
    hi = [(a, s) for lane, a, s in accesses if lane >= half]
    return [req for req in (lo, hi) if req]


def _request_degree(accesses: List[Tuple[int, int]], banks: int,
                    word_bytes: int) -> int:
    """Max distinct-words-per-bank of one request (1 = conflict-free)."""
    per_bank: Dict[int, set] = {}
    for addr, size in accesses:
        first = addr // word_bytes
        for word in range(first, first + max(1, -(-size // word_bytes))):
            per_bank.setdefault(word % banks, set()).add(word)
    return max((len(words) for words in per_bank.values()), default=1)


def _prepare_slot(addresses, sizes, lanes, word_bytes):
    addresses = [int(a) for a in addresses]
    if sizes is None:
        sizes = [word_bytes] * len(addresses)
    else:
        sizes = [int(s) for s in sizes]
    if lanes is None:
        lanes = list(range(len(addresses)))
    return addresses, sizes, lanes


def bank_conflict_degree(addresses: Sequence[int], banks: int,
                         word_bytes: int = BANK_WORD_BYTES,
                         sizes: Optional[Sequence[int]] = None,
                         lanes: Optional[Sequence[int]] = None,
                         warp_size: int = 32) -> int:
    """Serialization degree of one warp-level shared-memory access.

    ``addresses`` are **byte** addresses into the block's shared segment;
    ``sizes`` are the per-access element widths in bytes (``word_bytes``
    when omitted).  Returns the maximum number of distinct words mapped to
    any single bank across the slot's hardware requests (1 = conflict-free).
    """
    addresses, sizes, lanes = _prepare_slot(addresses, sizes, lanes,
                                            word_bytes)
    if not addresses:
        return 1
    return max(_request_degree(req, banks, word_bytes)
               for req in _bank_requests(addresses, sizes, lanes,
                                         warp_size, word_bytes))


def bank_conflict_cycles(addresses: Sequence[int], banks: int,
                         word_bytes: int = BANK_WORD_BYTES,
                         sizes: Optional[Sequence[int]] = None,
                         lanes: Optional[Sequence[int]] = None,
                         warp_size: int = 32) -> int:
    """Extra serialization cycles of one warp-level shared access slot.

    Sums ``degree - 1`` over the slot's hardware requests, so a slot of
    consecutive float64 accesses (two conflict-free half-warp requests)
    costs zero extra cycles.
    """
    addresses, sizes, lanes = _prepare_slot(addresses, sizes, lanes,
                                            word_bytes)
    if not addresses:
        return 0
    return sum(_request_degree(req, banks, word_bytes) - 1
               for req in _bank_requests(addresses, sizes, lanes,
                                         warp_size, word_bytes))


# ---------------------------------------------------------------------------
# Batched (whole-launch) accounting over (warp_rows, lanes) address arrays.
# Inactive lanes are indicated by ``mask``; the math matches the scalar
# helpers above access-for-access so both executor paths report identical
# statistics.
# ---------------------------------------------------------------------------

def _sorted_distinct_counts(values: np.ndarray) -> np.ndarray:
    """Per-row count of distinct non-(-1) values of a 2-D int array."""
    s = np.sort(values, axis=1)
    first = (s[:, :1] != -1)
    rest = (s[:, 1:] != -1) & (s[:, 1:] != s[:, :-1])
    return first.sum(axis=1) + rest.sum(axis=1)


def batch_transactions(addresses: np.ndarray, mask: np.ndarray,
                       segment_bytes: int) -> np.ndarray:
    """Per-warp-row transaction counts for a byte-address array."""
    seg = np.where(mask, addresses // segment_bytes, -1)
    return _sorted_distinct_counts(seg)


def _request_cycles_rows(words: np.ndarray, mask: np.ndarray,
                         banks: int) -> np.ndarray:
    """Per-row ``degree - 1`` of one request batch of word indices."""
    rows_n = words.shape[0]
    key = np.where(mask, words, -1)
    s = np.sort(key, axis=1)
    distinct = (s != -1)
    if s.shape[1] > 1:
        distinct[:, 1:] &= (s[:, 1:] != s[:, :-1])
    counts = np.zeros((rows_n, banks), dtype=np.int64)
    rows, cols = np.nonzero(distinct)
    np.add.at(counts, (rows, s[rows, cols] % banks), 1)
    return np.maximum(counts.max(axis=1), 1) - 1


def batch_bank_cycles(addresses: np.ndarray, mask: np.ndarray, size: int,
                      banks: int, warp_size: int,
                      word_bytes: int = BANK_WORD_BYTES) -> np.ndarray:
    """Per-warp-row extra shared-memory cycles for a byte-address array.

    ``size`` is the (uniform) element width of the access; arrays wider than
    a bank word are split into two half-warp requests and expanded to their
    constituent words, mirroring :func:`bank_conflict_cycles`.
    """
    words_per_elem = max(1, -(-size // word_bytes))
    if words_per_elem == 1:
        return _request_cycles_rows(addresses // word_bytes, mask, banks)
    half = warp_size // 2
    total = np.zeros(addresses.shape[0], dtype=np.int64)
    for cols in (slice(0, half), slice(half, None)):
        first = addresses[:, cols] // word_bytes
        words = (first[:, :, None]
                 + np.arange(words_per_elem)[None, None, :])
        flat = words.reshape(addresses.shape[0], -1)
        flat_mask = np.repeat(mask[:, cols], words_per_elem, axis=1)
        total += _request_cycles_rows(flat, flat_mask, banks)
    return total


class SharedMemory:
    """Per-block shared memory: named arrays carved out of one allocation.

    Offsets are **byte**-accurate: each array is placed at the next
    naturally-aligned byte offset for its dtype, so float64 (or mixed
    f32/f64) tiles map to the correct 4-byte bank words.
    """

    def __init__(self, arrays: Optional[Dict[str, Tuple[int, np.dtype]]] = None):
        self.arrays: Dict[str, np.ndarray] = {}
        self._offsets: Dict[str, int] = {}   # byte offsets
        self._nbytes = 0
        if arrays:
            for name, (size, dtype) in arrays.items():
                self.allocate(name, size, dtype)

    def allocate(self, name: str, size: int, dtype=np.float32) -> np.ndarray:
        array = np.zeros(size, dtype=dtype)
        itemsize = array.itemsize
        offset = -(-self._nbytes // itemsize) * itemsize  # natural alignment
        self.arrays[name] = array
        self._offsets[name] = offset
        self._nbytes = offset + array.nbytes
        return array

    def byte_offset(self, name: str) -> int:
        """Byte offset of ``name`` within the block's shared segment."""
        return self._offsets[name]

    def addr(self, name: str, index: int) -> int:
        """Byte address of ``name[index]`` within the shared segment."""
        return self._offsets[name] + int(index) * self.arrays[name].itemsize

    def word_index(self, name: str, index: int) -> int:
        """First 4-byte bank word touched by ``name[index]``."""
        return self.addr(name, index) // BANK_WORD_BYTES

    @property
    def total_words(self) -> int:
        return -(-self._nbytes // BANK_WORD_BYTES)

    @property
    def nbytes(self) -> int:
        return self._nbytes
