"""Tenants, priority classes, and admission control for the front door.

A production front door shared by many callers needs three guarantees
before a request ever reaches the batcher: the global queue is bounded
(backpressure instead of unbounded memory), no single tenant can starve
the rest (per-tenant in-flight quotas), and latency-critical traffic
can still get in when the queue is nearly full (priority headroom).
This module keeps all three deterministic — admission is a pure
function of the current depth, the tenant's in-flight count, and the
request's priority class — so tests can assert exact accept/reject
decisions.

A tenant's live state is accounting only: request counts and its
in-flight load.  Measured feedback goes to the program's own
calibration store (``RunOptions(feedback=True)``), shared by every
tenant.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Optional

from ..errors import AdmissionError


class Priority(enum.IntEnum):
    """Request priority class; lower values dispatch first.

    ``HIGH`` requests are admitted into reserved queue headroom when the
    queue is full for everyone else; ``LOW`` requests are shed first
    (they are only admitted while the queue is under half capacity).
    """

    HIGH = 0
    NORMAL = 1
    LOW = 2


@dataclasses.dataclass
class TenantConfig:
    """Static per-tenant policy.

    ``quota`` bounds the tenant's in-flight requests (queued plus
    dispatched); ``priority`` is the default class for the tenant's
    requests when ``submit()`` does not name one.
    """

    name: str
    quota: int = 64
    priority: Priority = Priority.NORMAL


class TenantState:
    """Live accounting for one tenant."""

    def __init__(self, config: TenantConfig):
        self.config = config
        #: Requests admitted and not yet resolved (queued or dispatched).
        self.inflight = 0
        self.submitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0

    @property
    def name(self) -> str:
        return self.config.name

    def __repr__(self) -> str:
        return (f"TenantState({self.name!r}, inflight={self.inflight}, "
                f"completed={self.completed}, failed={self.failed}, "
                f"rejected={self.rejected})")


class AdmissionPolicy:
    """Deterministic accept/reject decision at the front door.

    The effective queue-depth limit depends on the priority class:

    * ``LOW`` — half the configured depth (shed first under load);
    * ``NORMAL`` — the configured depth;
    * ``HIGH`` — the configured depth plus a reserved headroom of a
      quarter (at least one slot), so latency-critical traffic is still
      admitted when normal traffic is already being shed.

    The per-tenant quota applies uniformly after the depth check.
    """

    def __init__(self, max_queue_depth: int):
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}")
        self.max_queue_depth = int(max_queue_depth)

    def depth_limit(self, priority: Priority) -> int:
        base = self.max_queue_depth
        if priority is Priority.LOW:
            return max(1, base // 2)
        if priority is Priority.HIGH:
            return base + max(1, base // 4)
        return base

    def admit(self, depth: int, tenant: TenantState,
              priority: Priority) -> None:
        """Raise :class:`AdmissionError` iff the request must be shed."""
        if depth >= self.depth_limit(priority):
            raise AdmissionError(
                f"queue depth {depth} at limit "
                f"{self.depth_limit(priority)} for {priority.name} "
                f"traffic", tenant=tenant.name, reason="queue_full")
        if tenant.inflight >= tenant.config.quota:
            raise AdmissionError(
                f"tenant {tenant.name!r} at quota "
                f"({tenant.inflight}/{tenant.config.quota} in flight)",
                tenant=tenant.name, reason="tenant_quota")


def resolve_tenants(configs) -> Dict[str, TenantState]:
    """Build the tenant table from an iterable of configs (or names)."""
    table: Dict[str, TenantState] = {}
    for entry in configs or ():
        config = (entry if isinstance(entry, TenantConfig)
                  else TenantConfig(name=str(entry)))
        table[config.name] = TenantState(config)
    return table
