"""GPU architectural specifications.

The paper evaluates on an NVIDIA Tesla C2050 (Fermi) and a GeForce GTX 285
(GT200).  Since this reproduction runs on a simulator, the architecture is
described by the parameters that the paper's decisions actually depend on:
occupancy limits (threads/blocks/registers/shared memory per SM), warp width,
memory-system timing for the Hong & Kim analytic model, and kernel-launch
overhead.

All timing parameters are in core-clock cycles unless stated otherwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math


@dataclasses.dataclass(frozen=True)
class GPUSpec:
    """Architectural description of one GPU target."""

    name: str
    num_sms: int
    warp_size: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    max_threads_per_block: int
    registers_per_sm: int
    shared_mem_per_sm: int          # bytes
    max_shared_mem_per_block: int   # bytes
    shared_mem_banks: int
    core_clock_ghz: float
    mem_bandwidth_gbps: float       # GB/s
    # Hong & Kim model parameters.
    mem_latency: float              # global memory round-trip latency (cycles)
    departure_del_coal: float       # cycles between coalesced transactions
    departure_del_uncoal: float     # cycles between uncoalesced transactions
    issue_cycles: float             # cycles to issue one instruction for a warp
    coalesced_bytes_per_txn: int    # bytes served by one coalesced transaction
    # Overheads.
    kernel_launch_overhead_us: float
    # Register allocation granularity (registers rounded per warp).
    register_alloc_unit: int = 64
    shared_alloc_unit: int = 128

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable identity of every tuning-relevant architecture field.

        Persisted artifacts (calibration stores, artifact bundles) stamp
        this value so state measured or baked on one architecture is
        never silently applied on another; any field change — even a
        timing parameter tweak on the same GPU name — changes the
        fingerprint.  The readable prefix keeps mismatch errors
        actionable; the digest does the comparing.
        """
        payload = ";".join(f"{field.name}={getattr(self, field.name)!r}"
                           for field in dataclasses.fields(self))
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
        slug = self.name.lower().replace(" ", "-")
        return f"{slug}:{digest}"

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def max_warps_per_sm(self) -> int:
        return self.max_threads_per_sm // self.warp_size

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / (self.core_clock_ghz * 1e9)

    def seconds_to_cycles(self, seconds: float) -> float:
        return seconds * self.core_clock_ghz * 1e9

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    def blocks_per_sm(self, threads_per_block: int, regs_per_thread: int,
                      shared_per_block: int) -> int:
        """How many blocks of this shape fit concurrently on one SM.

        Applies the four standard occupancy limiters: the block-count limit,
        the thread-count limit, the register file, and shared memory.
        Returns 0 when a single block does not fit at all (invalid launch).
        """
        if threads_per_block <= 0 or threads_per_block > self.max_threads_per_block:
            return 0
        if shared_per_block > self.max_shared_mem_per_block:
            return 0

        warps = math.ceil(threads_per_block / self.warp_size)
        limit_blocks = self.max_blocks_per_sm
        limit_threads = self.max_threads_per_sm // threads_per_block

        regs_per_warp = _round_up(regs_per_thread * self.warp_size,
                                  self.register_alloc_unit)
        regs_per_block = regs_per_warp * warps
        if regs_per_block > 0:
            limit_regs = self.registers_per_sm // regs_per_block
        else:
            limit_regs = limit_blocks

        smem = _round_up(max(shared_per_block, 1), self.shared_alloc_unit)
        limit_smem = self.shared_mem_per_sm // smem

        return max(0, min(limit_blocks, limit_threads, limit_regs, limit_smem))

    def active_warps_per_sm(self, threads_per_block: int, regs_per_thread: int,
                            shared_per_block: int, grid_blocks: int) -> float:
        """Average number of warps resident on one SM during the launch."""
        fit = self.blocks_per_sm(threads_per_block, regs_per_thread,
                                 shared_per_block)
        if fit == 0 or grid_blocks == 0:
            return 0.0
        warps_per_block = math.ceil(threads_per_block / self.warp_size)
        # Not enough blocks to fill every SM: average over SMs.
        resident_blocks = min(fit, grid_blocks / self.num_sms)
        return resident_blocks * warps_per_block

    def occupancy(self, threads_per_block: int, regs_per_thread: int,
                  shared_per_block: int) -> float:
        """Fraction of the SM's warp slots occupied by this configuration."""
        fit = self.blocks_per_sm(threads_per_block, regs_per_thread,
                                 shared_per_block)
        warps_per_block = math.ceil(threads_per_block / self.warp_size)
        return min(1.0, fit * warps_per_block / self.max_warps_per_sm)


def _round_up(value: int, unit: int) -> int:
    return ((value + unit - 1) // unit) * unit


#: NVIDIA Tesla C2050 (Fermi GF100), the paper's primary target.
TESLA_C2050 = GPUSpec(
    name="Tesla C2050",
    num_sms=14,
    warp_size=32,
    max_threads_per_sm=1536,
    max_blocks_per_sm=8,
    max_threads_per_block=1024,
    registers_per_sm=32768,
    shared_mem_per_sm=49152,
    max_shared_mem_per_block=49152,
    shared_mem_banks=32,
    core_clock_ghz=1.15,
    mem_bandwidth_gbps=144.0,
    mem_latency=500.0,
    departure_del_coal=4.0,
    departure_del_uncoal=40.0,
    issue_cycles=4.0,
    coalesced_bytes_per_txn=128,
    kernel_launch_overhead_us=5.0,
)

#: NVIDIA GeForce GTX 285 (GT200), the paper's second target.
GTX_285 = GPUSpec(
    name="GeForce GTX 285",
    num_sms=30,
    warp_size=32,
    max_threads_per_sm=1024,
    max_blocks_per_sm=8,
    max_threads_per_block=512,
    registers_per_sm=16384,
    shared_mem_per_sm=16384,
    max_shared_mem_per_block=16384,
    shared_mem_banks=16,
    core_clock_ghz=1.476,
    mem_bandwidth_gbps=159.0,
    mem_latency=450.0,
    departure_del_coal=4.0,
    departure_del_uncoal=40.0,
    issue_cycles=4.0,
    coalesced_bytes_per_txn=64,
    kernel_launch_overhead_us=7.0,
)

#: NVIDIA GeForce GTX 480 (Fermi GF100 consumer part) — an extra target
#: demonstrating write-once/run-anywhere beyond the paper's two GPUs.
GTX_480 = GPUSpec(
    name="GeForce GTX 480",
    num_sms=15,
    warp_size=32,
    max_threads_per_sm=1536,
    max_blocks_per_sm=8,
    max_threads_per_block=1024,
    registers_per_sm=32768,
    shared_mem_per_sm=49152,
    max_shared_mem_per_block=49152,
    shared_mem_banks=32,
    core_clock_ghz=1.401,
    mem_bandwidth_gbps=177.4,
    mem_latency=500.0,
    departure_del_coal=4.0,
    departure_del_uncoal=40.0,
    issue_cycles=4.0,
    coalesced_bytes_per_txn=128,
    kernel_launch_overhead_us=5.0,
)

#: Registry of known targets, keyed by short name.
TARGETS = {
    "c2050": TESLA_C2050,
    "gtx285": GTX_285,
    "gtx480": GTX_480,
}


def get_target(name: str) -> GPUSpec:
    """Look up a GPU target by short name (``c2050``, ``gtx285``)."""
    key = name.lower().replace(" ", "").replace("-", "").replace("_", "")
    if key in TARGETS:
        return TARGETS[key]
    for spec in TARGETS.values():
        if spec.name.lower() == name.lower():
            return spec
    raise KeyError(
        f"unknown GPU target {name!r}; known targets: {sorted(TARGETS)}")
