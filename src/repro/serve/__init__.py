"""``repro.serve`` — the asyncio serving front door.

The production-serving story the ROADMAP's north star asks for: a
stream of independent mixed-shape requests enters through an admission
gate (bounded queue, per-tenant quotas, priority classes) and waits
until the dispatch thread is free.  Each dispatch then takes the
best-priority waiting request plus the other waiting requests in its
(program, size-bucket, frozen-scalars) bucket, up to ``max_batch``,
and runs each of them exactly once — fused along the stream axis when
the program opts in — with per-request futures, per-request stage
timing, and per-request failure isolation.

Quickstart::

    from repro import api
    from repro.serve import Server, ServeConfig

    compiled = api.compile(program)
    async with Server(compiled, ServeConfig(max_batch=8,
                                            fuse_axis="rows")) as server:
        result = await server.submit(data, params, tenant="alice")
        print(result.output, result.stage_seconds)

``python -m repro serve-bench`` runs the deterministic load-generator
benchmark (:mod:`repro.serve.loadgen`).
"""

from ..errors import AdmissionError, ServeError
from .batcher import (BucketKey, PendingRequest, ShapeBatcher, bucket_key,
                      linearly_batchable)
from .loadgen import TrafficSpec, render, run_benchmark
from .metrics import ServeMetrics, percentile
from .server import DEFAULT_TENANT, ServeConfig, ServeResult, Server
from .tenancy import (AdmissionPolicy, Priority, TenantConfig, TenantState)

__all__ = [
    "Server", "ServeConfig", "ServeResult", "DEFAULT_TENANT",
    "Priority", "TenantConfig", "TenantState", "AdmissionPolicy",
    "AdmissionError", "ServeError",
    "ShapeBatcher", "PendingRequest", "BucketKey", "bucket_key",
    "linearly_batchable",
    "ServeMetrics", "percentile",
    "TrafficSpec", "run_benchmark", "render",
]
