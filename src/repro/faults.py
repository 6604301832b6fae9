"""Deterministic, seeded fault injection for the serving runtime.

Multi-versioned-kernel systems treat a misbehaving variant as a
*selection signal*, not a fatal error.  Exercising that policy needs
failures on demand: a :class:`FaultInjector` makes a chosen plan family
raise, return NaNs, or time out on its Nth execution — deterministically,
so a test (or ``python -m repro health``) can assert the exact number of
faults, retries and quarantines the run must produce.

Thread it through compilation or a device::

    from repro import api
    from repro.faults import FaultInjector, FaultPlan

    injector = FaultInjector([FaultPlan(family="reduce.two_kernel",
                                        kind="raise", nth=1)], seed=7)
    compiled = api.compile(program,
                           options=api.AdapticOptions(faults=injector))
    # ... run()/run_many() now hit the fault and degrade gracefully;
    # compiled.stats.faults_injected / retries / quarantines count it.

Injection points:

* **plan scope** (default) — the runtime consults
  :meth:`FaultInjector.on_execute` around every segment's
  ``plan.execute``; matching is by plan *family* (or exact strategy
  tag), the same identity quarantines use.
* **launch scope** — a :class:`FaultPlan` with ``kernel=`` set is
  consulted by :meth:`Device.launch <repro.gpu.device.Device.launch>`
  per kernel launch, matching on the kernel-name substring.

Determinism: ``nth``/``count`` trigger on exact per-fault execution
counts; ``probability`` draws from a private ``random.Random(seed)``, so
two injectors with equal seeds agree call-for-call (exact on a serial
batch; when ``run_batch`` fans out over threads the draw order follows
thread scheduling).
"""

from __future__ import annotations

import dataclasses
import random
import threading
from typing import List, Optional, Sequence

#: Supported fault kinds.
KIND_RAISE = "raise"      # the execution raises KernelExecutionError
KIND_NAN = "nan"          # the execution completes but its output is NaN
KIND_TIMEOUT = "timeout"  # the execution raises KernelTimeoutError
KINDS = (KIND_RAISE, KIND_NAN, KIND_TIMEOUT)

#: Family wildcard: matches every plan (terminal-failure tests).
ANY_FAMILY = "*"


@dataclasses.dataclass
class FaultPlan:
    """One deterministic fault rule.

    ``family`` names the targeted plan family (e.g.
    ``"reduce.two_kernel"``) or exact strategy tag; ``"*"`` matches
    every plan.  The rule fires on matching executions number
    ``nth .. nth+count-1`` (1-based; ``count=None`` keeps firing
    forever).  A ``probability`` above 0 replaces the counting rule
    with a seeded Bernoulli draw per matching execution.  ``kernel``
    switches the rule to launch scope: it is then consulted by
    ``Device.launch`` and matches kernel names containing the substring.
    """

    family: str
    kind: str = KIND_RAISE
    nth: int = 1
    count: Optional[int] = 1
    probability: float = 0.0
    kernel: Optional[str] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if self.nth < 1:
            raise ValueError(f"nth is 1-based; got {self.nth}")

    def matches_plan(self, family: str, strategy: str) -> bool:
        if self.kernel is not None:
            return False
        return self.family in (ANY_FAMILY, family, strategy)

    def matches_kernel(self, kernel_name: str) -> bool:
        return self.kernel is not None and self.kernel in kernel_name


class FaultInjector:
    """Seeded fault source consulted by the runtime and devices.

    Holds an ordered list of :class:`FaultPlan` rules, a per-rule
    execution counter, and one ``random.Random(seed)`` for
    probabilistic rules.  All state is guarded by a lock so a
    ``run_batch`` fan-out's threads can consult it concurrently.
    ``enabled=False`` turns the injector into a no-op without removing
    it (the disabled-injector path must be bit-identical to no injector
    at all).
    """

    def __init__(self, plans: Sequence[FaultPlan] = (), seed: int = 0):
        self.plans: List[FaultPlan] = list(plans)
        self.seed = seed
        self.enabled = True
        #: Total faults this injector has fired (all scopes).
        self.faults_injected = 0
        self._rng = random.Random(seed)
        self._counts = [0] * len(self.plans)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _decide(self, index: int, fault: FaultPlan) -> bool:
        """Count one matching execution of ``fault`` and decide."""
        self._counts[index] += 1
        n = self._counts[index]
        if fault.probability > 0.0:
            return self._rng.random() < fault.probability
        if n < fault.nth:
            return False
        return fault.count is None or n < fault.nth + fault.count

    def on_execute(self, plan) -> Optional[FaultPlan]:
        """Fault to apply to one segment execution of ``plan`` (or None).

        Called by the runtime once per ``plan.execute``; matching is by
        ``plan.family`` / ``plan.strategy``.
        """
        if not self.enabled:
            return None
        with self._lock:
            for index, fault in enumerate(self.plans):
                if not fault.matches_plan(plan.family, plan.strategy):
                    continue
                if self._decide(index, fault):
                    self.faults_injected += 1
                    return fault
        return None

    def on_launch(self, kernel_name: str) -> Optional[FaultPlan]:
        """Fault to apply to one kernel launch (launch-scope rules only)."""
        if not self.enabled:
            return None
        with self._lock:
            for index, fault in enumerate(self.plans):
                if not fault.matches_kernel(kernel_name):
                    continue
                if self._decide(index, fault):
                    self.faults_injected += 1
                    return fault
        return None

    def reset(self) -> None:
        """Rewind counters and the RNG to the constructed state."""
        with self._lock:
            self._rng = random.Random(self.seed)
            self._counts = [0] * len(self.plans)
            self.faults_injected = 0

    def __repr__(self) -> str:
        return (f"FaultInjector({len(self.plans)} plan(s), seed={self.seed}, "
                f"enabled={self.enabled}, injected={self.faults_injected})")
