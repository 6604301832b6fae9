"""A convenience device façade: allocation, transfers, launches.

Bundles the pieces a runtime needs — allocate device arrays, copy data in and
out (with PCIe transfer-time accounting), and launch kernels functionally.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import KernelExecutionError, KernelTimeoutError, TransferError
from ..faults import KIND_NAN, KIND_TIMEOUT
from .arch import GPUSpec, TESLA_C2050
from .executor import Executor, LaunchStats
from .kernel import Kernel, LaunchConfig
from .memory import BufferArena, DeviceArray
from .vectorized import ExecMode, MODE_REFERENCE

#: Host-device link bandwidth (PCIe 2.0 x16 effective), GB/s.
PCIE_BANDWIDTH_GBPS = 6.0
#: Fixed per-memcpy latency, microseconds.
MEMCPY_LATENCY_US = 10.0


@dataclasses.dataclass
class TransferRecord:
    """One host<->device memcpy, for transfer-time accounting."""

    direction: str   # "h2d" | "d2h"
    nbytes: int

    @property
    def seconds(self) -> float:
        return (MEMCPY_LATENCY_US * 1e-6
                + self.nbytes / (PCIE_BANDWIDTH_GBPS * 1e9))


class Device:
    """One simulated GPU: memory, an executor, and transfer accounting."""

    def __init__(self, spec: GPUSpec = TESLA_C2050,
                 exec_mode: ExecMode = MODE_REFERENCE,
                 fault_injector=None):
        self.spec = spec
        self.exec_mode = exec_mode
        self.executor = Executor(spec, default_mode=self.exec_mode)
        self.transfers: list[TransferRecord] = []
        self.launch_count = 0
        #: Optional :class:`~repro.faults.FaultInjector` consulted per
        #: launch (launch-scope, ``kernel=`` rules only).
        self.fault_injector = fault_injector
        #: Recycled device allocations (fed by :meth:`scope` reclamation).
        self.arena = BufferArena()
        self._scopes: List[List[DeviceArray]] = []

    # -- memory ----------------------------------------------------------
    def _track(self, array: DeviceArray) -> DeviceArray:
        if self._scopes:
            self._scopes[-1].append(array)
        return array

    @contextlib.contextmanager
    def scope(self):
        """Reclaim every allocation made inside the scope into the arena.

        The serving runtime wraps each ``run()`` in a scope: segment-chain
        intermediates are recycled instead of leaked, so repeated runs at a
        shape reuse the same buffers instead of allocating fresh ones.
        Buffers that must outlive the scope (none today — ``to_host``
        copies) would simply be removed from the returned list before
        exit.  Scopes nest; each allocation belongs to the innermost one.
        """
        allocated: List[DeviceArray] = []
        self._scopes.append(allocated)
        try:
            yield allocated
        finally:
            self._scopes.pop()
            for array in allocated:
                self.arena.release(array)

    def to_device(self, data: np.ndarray, name: str = "buf") -> DeviceArray:
        """Host-to-device copy; returns the device allocation.

        Always copies — a device buffer aliasing the caller's host array
        would let kernel stores mutate user input in place.
        """
        try:
            flat = np.ascontiguousarray(data).reshape(-1)
            array = self.arena.acquire(flat.size, flat.dtype, name)
            np.copyto(array.data, flat)
        except (TypeError, ValueError, MemoryError) as exc:
            raise TransferError(f"host-to-device copy of {name!r} failed: "
                                f"{exc}", kind="h2d") from exc
        self.transfers.append(TransferRecord("h2d", array.data.nbytes))
        return self._track(array)

    def alloc(self, shape, dtype=np.float32, name: str = "buf") -> DeviceArray:
        """Device-side allocation (zero-filled) without a host copy."""
        size = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
        return self._track(self.arena.acquire(size, dtype, name))

    def alloc_from(self, data: np.ndarray, name: str = "buf") -> DeviceArray:
        """Device-side allocation initialized from a copy of ``data``
        (no transfer cost)."""
        flat = np.ascontiguousarray(data).reshape(-1)
        array = self.arena.acquire(flat.size, flat.dtype, name)
        np.copyto(array.data, flat)
        return self._track(array)

    def to_host(self, array: DeviceArray) -> np.ndarray:
        """Device-to-host copy."""
        self.transfers.append(TransferRecord("d2h", array.data.nbytes))
        try:
            return array.to_host()
        except (TypeError, ValueError, MemoryError) as exc:
            raise TransferError(f"device-to-host copy of {array.name!r} "
                                f"failed: {exc}", kind="d2h") from exc

    # -- execution ---------------------------------------------------------
    def launch(self, kernel: Kernel, grid, block, args: Dict[str, Any],
               trace: bool = False,
               mode: Optional[ExecMode] = None) -> Optional[LaunchStats]:
        self.launch_count += 1
        stats = self.executor.launch(
            kernel, LaunchConfig.of(grid, block), args, trace=trace,
            mode=mode or self.exec_mode)
        if self.fault_injector is not None:
            fault = self.fault_injector.on_launch(kernel.name)
            if fault is not None:
                self._apply_launch_fault(fault, kernel, args)
        return stats

    def launch_fused_chain(self, fn, arrays) -> None:
        """One launch covering a whole fused segment chain.

        Counts as a single launch — the accounting difference fusion
        exists to create.
        """
        self.launch_count += 1
        self.executor.launch_fused_chain(fn, arrays)

    def _apply_launch_fault(self, fault, kernel: Kernel,
                            args: Dict[str, Any]) -> None:
        """Apply a launch-scope injected fault after the real launch ran."""
        if fault.kind == KIND_TIMEOUT:
            raise KernelTimeoutError(
                f"injected timeout in kernel {kernel.name!r}",
                injected=True, kind=fault.kind)
        if fault.kind == KIND_NAN:
            for value in args.values():
                data = getattr(value, "data", None)
                if (isinstance(data, np.ndarray)
                        and np.issubdtype(data.dtype, np.floating)):
                    data.fill(np.nan)
            return
        raise KernelExecutionError(
            f"injected fault in kernel {kernel.name!r}",
            injected=True, kind=fault.kind)

    # -- accounting ----------------------------------------------------------
    @property
    def transfer_seconds(self) -> float:
        return sum(t.seconds for t in self.transfers)

    def reset_accounting(self) -> None:
        self.transfers.clear()
        self.launch_count = 0
