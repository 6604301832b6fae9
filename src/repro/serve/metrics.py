"""Serving observability: per-request stage times and latency percentiles.

Every request that moves through the front door is timed across four
stages — ``queue`` (admission to dispatch start), ``batch`` (the shared
wall-clock of its coalesced dispatch), ``select`` and ``kernel`` (from
the underlying :class:`~repro.compiler.runtime.RunResult`, amortized
over the group when the dispatch was fused).  The aggregate view is
what a load balancer or capacity planner reads: request counts by
outcome, batch shape of the dispatch stream, p50/p99 latency, and
throughput over the measurement window.
"""

from __future__ import annotations

import collections
import math
import time
from typing import Deque, Dict, Optional, Sequence

#: Stage keys every ServeResult carries.
STAGES = ("queue", "batch", "select", "kernel")

#: Completions whose latencies :class:`ServeMetrics` keeps: the most
#: recent ones, so a long-lived server's latency record stays bounded.
LATENCY_WINDOW = 4096


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100]) of a value list."""
    if not values:
        return 0.0
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    # Clamp the nearest rank into [1, len]: small windows (fewer samples
    # than the percentile's implied resolution) must answer with the max
    # sample, never index past the list or collapse toward the median.
    rank = min(len(ordered), max(1, math.ceil(p / 100.0 * len(ordered))))
    return ordered[rank - 1]


class ServeMetrics:
    """Aggregated counters + latency record for one server."""

    def __init__(self):
        self.submitted = 0
        self.rejected: Dict[str, int] = {}
        self.completed = 0
        self.failed = 0
        self.dispatches = 0
        self.fused_dispatches = 0
        self.fused_fallbacks = 0
        self.batched_requests = 0
        self.max_batch_size = 0
        self.stage_seconds: Dict[str, float] = {s: 0.0 for s in STAGES}
        #: Latencies of the last :data:`LATENCY_WINDOW` completions.
        self.latencies: Deque[float] = collections.deque(
            maxlen=LATENCY_WINDOW)
        self._started: Optional[float] = None
        self._stopped: Optional[float] = None

    # -- lifecycle -------------------------------------------------------
    def start_window(self) -> None:
        self._started = time.perf_counter()
        self._stopped = None

    def stop_window(self) -> None:
        self._stopped = time.perf_counter()

    @property
    def window_seconds(self) -> float:
        if self._started is None:
            return 0.0
        end = self._stopped or time.perf_counter()
        return max(end - self._started, 0.0)

    # -- recording -------------------------------------------------------
    def record_rejection(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def record_dispatch(self, size: int, fused: bool) -> None:
        self.dispatches += 1
        self.batched_requests += size
        self.max_batch_size = max(self.max_batch_size, size)
        if fused:
            self.fused_dispatches += 1

    def record_completion(self, latency_seconds: float,
                          stage_seconds: Dict[str, float]) -> None:
        self.completed += 1
        self.latencies.append(latency_seconds)
        for stage in STAGES:
            self.stage_seconds[stage] += stage_seconds.get(stage, 0.0)

    def record_failure(self) -> None:
        self.failed += 1

    # -- reading ---------------------------------------------------------
    @property
    def rejections(self) -> int:
        return sum(self.rejected.values())

    def latency_percentile(self, p: float) -> float:
        """Nearest-rank percentile over the latency window: the last
        :data:`LATENCY_WINDOW` completions, not every one since start."""
        return percentile(self.latencies, p)

    def mean_batch_size(self) -> float:
        if not self.dispatches:
            return 0.0
        return self.batched_requests / self.dispatches

    def throughput(self) -> float:
        """Completed requests per second over the measurement window."""
        window = self.window_seconds
        if window <= 0.0:
            return 0.0
        return self.completed / window

    def summary(self) -> Dict[str, float]:
        """Flat report dict (the ``serve-bench`` CLI prints this)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejections,
            "dispatches": self.dispatches,
            "fused_dispatches": self.fused_dispatches,
            "mean_batch": round(self.mean_batch_size(), 2),
            "max_batch": self.max_batch_size,
            "p50_ms": round(self.latency_percentile(50) * 1e3, 3),
            "p99_ms": round(self.latency_percentile(99) * 1e3, 3),
            "throughput_rps": round(self.throughput(), 1),
        }
