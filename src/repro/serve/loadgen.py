"""Deterministic load generator + serving benchmark.

Builds a mixed-shape TMV traffic mix (every power-of-two factorization
of a fixed element budget, several requests per shape, deterministic
seeded contents and arrival order, two tenants), then measures the same
traffic three ways:

* **serial** — one ``compiled.run()`` per request in arrival order, the
  per-request baseline a naive service would pay;
* **direct run_many** — the whole mix as one pre-formed batch, used as
  the bit-identity reference for served outputs;
* **front door** — every request submitted independently through the
  asyncio :class:`~repro.serve.server.Server`, which coalesces and
  (for same-binding groups) fuses them.

The report carries p50/p99 latency and throughput for both serving
paths, the dispatch/batch shape of the front door, and a strict
bit-identity verdict: every served output must equal the direct
``run_many`` output for the same request.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..apps import tmv
from ..gpu import ExecMode, GPUSpec, TESLA_C2050
from .metrics import percentile
from .server import ServeConfig, Server
from ..compiler import RunOptions

#: Tenants the generated traffic cycles through.
TENANTS = ("alice", "bob")


@dataclasses.dataclass
class TrafficSpec:
    """Deterministic description of one benchmark traffic mix."""

    total_elements: int = 1 << 8
    requests_per_shape: int = 16
    seed: int = 0

    def build(self) -> List[Tuple[np.ndarray, Dict, str]]:
        """Materialize the mix as ``(input, params, tenant)`` requests.

        One shared ``vec`` object per shape (requests at a shape
        coalesce into one bucket and may fuse); per-request matrix
        contents and the global arrival order are seeded.
        """
        rng = np.random.default_rng(self.seed)
        requests: List[Tuple[np.ndarray, Dict, str]] = []
        for rows, cols in tmv.shape_sweep(self.total_elements):
            vec = rng.standard_normal(cols)
            for _ in range(self.requests_per_shape):
                matrix = rng.standard_normal(rows * cols)
                params = {"rows": rows, "cols": cols, "vec": vec}
                requests.append((matrix, params))
        order = rng.permutation(len(requests))
        return [(requests[i][0], requests[i][1],
                 TENANTS[int(i) % len(TENANTS)]) for i in order]


async def _drive(server: Server, traffic) -> List:
    """Submit the whole mix concurrently and gather every result."""
    jobs = [server.submit(matrix, params, tenant=tenant)
            for matrix, params, tenant in traffic]
    return await asyncio.gather(*jobs)


def _serve_pass(compiled, traffic, config: ServeConfig):
    """One full front-door pass; returns (results, metrics, wall).

    The wall is the server's own measurement window — opened at
    ``start()``, closed once ``close()`` has drained every in-flight
    request — so it covers admission, coalescing, dispatch and drain
    but not the benchmark harness's event-loop construction/teardown
    (a server is a long-lived process; the loop is not rebuilt per
    request).
    """

    async def main():
        async with Server(compiled, config) as server:
            results = await _drive(server, traffic)
        return results, server.metrics

    results, metrics = asyncio.run(main())
    return results, metrics, metrics.window_seconds


def run_benchmark(spec: Optional[GPUSpec] = None,
                  traffic: Optional[TrafficSpec] = None,
                  config: Optional[ServeConfig] = None,
                  exec_mode: ExecMode = ExecMode.VECTORIZED
                  ) -> Dict[str, object]:
    """Serial run() vs batched front door on the same traffic mix."""
    spec = spec or TESLA_C2050
    traffic_spec = traffic or TrafficSpec()
    requests = traffic_spec.build()
    options = RunOptions(exec_mode=exec_mode)
    if config is None:
        config = ServeConfig(
            max_batch=traffic_spec.requests_per_shape, fuse_axis="rows",
            max_queue_depth=len(requests) + 1, options=options)

    from .. import api
    compiled = api.compile(tmv.build(), arch=spec)

    inputs = [matrix for matrix, _params, _tenant in requests]
    params_list = [params for _matrix, params, _tenant in requests]

    # Bit-identity reference (also warms every unfused binding).
    reference = compiled.run_many(inputs, params_list, options=options)

    # Serial per-request baseline on the warm program.
    serial_latencies: List[float] = []
    serial_started = time.perf_counter()
    for matrix, params, _tenant in requests:
        t = time.perf_counter()
        compiled.run(matrix, params, options=options)
        serial_latencies.append(time.perf_counter() - t)
    serial_wall = time.perf_counter() - serial_started

    # Untimed priming pass (compiles fused-binding kernels), then the
    # measured pass — both serving paths are compared warm.
    _serve_pass(compiled, requests, config)
    results, metrics, serve_wall = _serve_pass(compiled, requests, config)

    identical = all(
        np.array_equal(result.output, ref.output)
        for result, ref in zip(results, reference))

    report: Dict[str, object] = {
        "requests": len(requests),
        "shapes": len(tmv.shape_sweep(traffic_spec.total_elements)),
        "serial_wall_s": round(serial_wall, 4),
        "serve_wall_s": round(serve_wall, 4),
        "throughput_serial_rps": round(len(requests) / serial_wall, 1),
        "throughput_serve_rps": round(len(requests) / serve_wall, 1),
        "speedup": round(serial_wall / serve_wall, 2),
        "serial_p50_ms": round(percentile(serial_latencies, 50) * 1e3, 3),
        "serial_p99_ms": round(percentile(serial_latencies, 99) * 1e3, 3),
        "serve_p50_ms": round(metrics.latency_percentile(50) * 1e3, 3),
        "serve_p99_ms": round(metrics.latency_percentile(99) * 1e3, 3),
        "dispatches": metrics.dispatches,
        "fused_dispatches": metrics.fused_dispatches,
        "mean_batch": round(metrics.mean_batch_size(), 2),
        "bit_identical": identical,
    }
    return report


def render(report: Dict[str, object]) -> str:
    width = max(len(key) for key in report)
    return "\n".join(f"{key:{width}s}  {value}"
                     for key, value in report.items())
