"""Host-side cost model: CPU throughput, transfer hops, layout gathers.

Heterogeneous placement (ADHA-style, see PAPERS.md) prices every
candidate plan on the device it would run on *plus* the data movement its
placement implies.  This module owns the host half of that arithmetic:

* sustained vectorized host throughput (`HOST_VECTOR_OPS_PER_SECOND`)
  and memory bandwidth (`HOST_MEM_BANDWIDTH_GBPS`) for whole-stream
  numpy map execution — distinct from the interpreter-style constants in
  :mod:`repro.compiler.plans.cpuplan`, which model per-element Python
  dispatch;
* :func:`hop_seconds`, the price of moving one buffer across the PCIe
  boundary in either direction (DaCe-style explicit movement accounting:
  h2d and d2h are charged per hop, per direction, never assumed);
* :func:`layout_transform_seconds`, the price of a host-side layout
  gather (AoS<->SoA / transpose staging) — two streaming passes over the
  buffer at host memory bandwidth plus a fixed fancy-index setup cost.

The break-even machinery treats these as plain additive terms on a
candidate's predicted seconds, so CPU/GPU split points fall out of the
same RegionTable sweeps that pick among GPU variants.
"""

from __future__ import annotations

from ..gpu.device import MEMCPY_LATENCY_US, PCIE_BANDWIDTH_GBPS

#: Sustained host throughput for whole-stream vectorized (numpy) map
#: work, scalar operations per second.  An order of magnitude above the
#: interpreter constant — one fused loop over contiguous memory — but
#: well below GPU compute throughput, so large shapes still route to
#: the device.
HOST_VECTOR_OPS_PER_SECOND = 1.2e10

#: Fixed host dispatch cost per vectorized segment execution, seconds.
HOST_VECTOR_DISPATCH_SECONDS = 1.5e-6

#: Sustained host memory bandwidth, GB/s.  The bandwidth term is what
#: makes the GPU win large shapes even against vectorized host code.
HOST_MEM_BANDWIDTH_GBPS = 12.0

#: Fixed setup cost of one host-side layout gather (permutation
#: construction is memoized; this prices the fancy-index apply).
LAYOUT_GATHER_SETUP_SECONDS = 2.0e-6


def hop_seconds(nbytes: int) -> float:
    """Seconds to move ``nbytes`` across PCIe, one direction, one hop.

    Matches :meth:`repro.gpu.device.TransferRecord.seconds` exactly —
    one latency term plus bandwidth-limited payload — so the legacy
    all-GPU transfer estimate (one h2d plus one d2h) is reproduced
    bit-identically by summing two hops.
    """
    return MEMCPY_LATENCY_US * 1e-6 + nbytes / (PCIE_BANDWIDTH_GBPS * 1e9)


def layout_transform_seconds(nbytes: int) -> float:
    """Seconds for one host-side layout gather over ``nbytes``.

    A fancy-index gather streams the buffer twice (read source + write
    destination) at host memory bandwidth.
    """
    return (LAYOUT_GATHER_SETUP_SECONDS
            + 2.0 * nbytes / (HOST_MEM_BANDWIDTH_GBPS * 1e9))
