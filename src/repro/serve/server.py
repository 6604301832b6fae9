"""The asyncio serving front door.

``Server`` turns a warmed :class:`~repro.compiler.runtime.CompiledProgram`
into a service: independent requests are admitted (bounded queue,
per-tenant quotas, priority headroom) and wait until the dispatch
thread is free.  It then takes the best-priority waiting request plus
every waiting request in its (program, size-bucket, frozen-scalars)
bucket, up to ``max_batch``, and runs them as one group in which each
request executes once (:class:`~repro.serve.batcher.ShapeBatcher`).
Failures are per-request — one poisoned request resolves its own future
with the error while its batch-mates complete, riding
:meth:`CompiledProgram.run_batch`'s per-index capture.

Two dispatch shapes per coalesced group:

* **fused** (``ServeConfig.fuse_axis``): ``k`` same-binding requests
  concatenate along the declared stream axis into *one* run at
  ``axis * k`` — the per-run launch path amortizes over the group, the
  dominant throughput win for repeated shapes.  Opt-in, because it is
  only semantically sound for programs whose steady-state invocations
  consume disjoint stream slices (row-wise TMV yes; stencils and
  whole-stream reductions no).  A fused failure falls back to unfused
  per-item dispatch so isolation still holds.
* **unfused** (default): one :meth:`run_batch` over the group — one
  shared selection, per-index error capture.

Execution runs on a single-threaded executor so the event loop stays
responsive while the (unsynchronized) program counters are only ever
touched from one thread; admission keeps accepting requests while a
dispatch is in flight, which is what makes groups grow under load.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..compiler.plans.base import freeze_scalars
from ..compiler.runtime import RunOptions, RunResult
from ..errors import AdmissionError, ServeError
from .batcher import (PendingRequest, ShapeBatcher, bucket_key,
                      linearly_batchable)
from .metrics import ServeMetrics
from .tenancy import (AdmissionPolicy, Priority, TenantConfig, TenantState,
                      resolve_tenants)

#: Name of the tenant used when ``submit()`` does not specify one.
DEFAULT_TENANT = "default"

#: Most auto-registered tenants the table keeps once they are idle.
#: Past it the least recently used idle ones are dropped, counts and
#: all, so a long-lived server's table does not grow with every name it
#: has seen, as :data:`~repro.serve.metrics.LATENCY_WINDOW` bounds the
#: latency record.  Configured tenants and tenants with requests in
#: flight are never dropped.
TENANT_WINDOW = 1024

#: Model-predicted speedup (one fused run vs the group run solo) a
#: same-binding group must clear before the server fuses it.
FUSE_MIN_GAIN = 2.0


def fuse_gain(base_seconds: float, fused_seconds: float, k: int) -> float:
    """Predicted speedup of one fused execution over ``k`` unfused ones.

    ``base_seconds`` prices one unfused execution, ``fused_seconds`` the
    single fused execution that replaces ``k`` of them.  A non-positive
    fused cost means the model considers the fused run free, so the gain
    is unbounded (``inf``).
    """
    if fused_seconds <= 0.0:
        return math.inf
    return (k * base_seconds) / fused_seconds


def chain_seconds(cost, plans: Sequence, params: Dict) -> float:
    """Total predicted seconds of a plan chain under one binding, priced
    by ``cost`` (anything with ``CostCache.plan_seconds``), the model the
    selector rides."""
    return sum(cost.plan_seconds(plan, params) for plan in plans)


@dataclasses.dataclass
class ServeConfig:
    """Front-door policy knobs.

    ``max_batch`` bounds one dispatch group: when the dispatch thread
    frees up, it takes at most ``max_batch`` waiting requests of one
    bucket.  ``max_queue_depth`` bounds admitted-but-unresolved requests
    (priority classes scale it — see
    :class:`~repro.serve.tenancy.AdmissionPolicy`).  ``fuse_axis``
    opts the program into stream-axis fusion for same-binding groups; a
    group fuses only when the model predicts at least
    :data:`FUSE_MIN_GAIN` — the fuse decision is itself input-aware,
    riding the same cost model the selector uses, so bindings whose
    chosen variant stops scaling at the fused size stay on the per-item
    path.

    ``options`` is the one :class:`~repro.RunOptions` every dispatch and
    every fused-path selection runs with: exec mode, input location,
    placement pin and ``feedback`` (so the program's own calibration
    store keeps learning while serving).  An unfused group is one
    ``run_batch``, which runs its items in order on the dispatch
    thread.
    """

    max_batch: int = 8
    max_queue_depth: int = 256
    fuse_axis: Optional[str] = None
    default_quota: int = 64
    options: RunOptions = dataclasses.field(default_factory=RunOptions)


@dataclasses.dataclass
class ServeResult:
    """What one request's future resolves to.

    ``stage_seconds`` covers ``queue`` / ``batch`` / ``select`` /
    ``kernel``; for fused dispatches the select/kernel stages are the
    fused run's, amortized over the group.  ``run`` is the underlying
    :class:`RunResult` (shared by the whole group when fused).
    """

    output: np.ndarray
    tenant: str
    priority: Priority
    batch_size: int
    fused: bool
    stage_seconds: Dict[str, float]
    run: RunResult


class Server:
    """Asyncio front door over one compiled program.

    Use as an async context manager::

        async with Server(compiled, ServeConfig(max_batch=8)) as server:
            result = await server.submit(data, params, tenant="alice")

    ``submit`` resolves with a :class:`ServeResult` or raises the
    request's own failure (admission rejections raise
    :class:`~repro.errors.AdmissionError` immediately).
    """

    def __init__(self, compiled, config: Optional[ServeConfig] = None, *,
                 tenants: Sequence[Union[TenantConfig, str]] = ()):
        self.compiled = compiled
        self.config = config or ServeConfig()
        self.metrics = ServeMetrics()
        self.tenants: Dict[str, TenantState] = resolve_tenants(tenants)
        #: Auto-registered tenant names, least recently used first.
        self._auto: Dict[str, None] = collections.OrderedDict()
        self._policy = AdmissionPolicy(self.config.max_queue_depth)
        self._batcher = ShapeBatcher(self.config.max_batch)
        #: Set when a request arrives or the server closes, so the idle
        #: dispatcher wakes up.
        self._wakeup: Optional[asyncio.Event] = None
        self._pending = 0
        self._seq = 0
        self._closed = True
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional[asyncio.Task] = None
        #: binding -> is stream-axis fusion structurally valid there.
        self._fusable: Dict[tuple, bool] = {}

    # -- lifecycle -------------------------------------------------------
    async def __aenter__(self) -> "Server":
        await self.start()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    async def start(self) -> None:
        if not self._closed:
            return
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve")
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        self._closed = False
        self.metrics.start_window()

    async def close(self) -> None:
        """Drain: dispatch every waiting request, then stop."""
        if self._closed:
            return
        self._closed = True
        self._wakeup.set()
        await self._dispatcher
        self._executor.shutdown(wait=True)
        self.metrics.stop_window()

    @property
    def pending(self) -> int:
        """Admitted requests not yet resolved (queued + dispatched)."""
        return self._pending

    # -- tenancy ---------------------------------------------------------
    def tenant(self, name: str) -> TenantState:
        """The tenant's live state, auto-registered on first sight.

        Registering one past :data:`TENANT_WINDOW` auto-registered
        tenants drops the least recently used idle ones.
        """
        state = self.tenants.get(name)
        if name in self._auto:
            self._auto.move_to_end(name)
        elif state is None:
            state = TenantState(TenantConfig(
                name=name, quota=self.config.default_quota))
            self.tenants[name] = state
            self._auto[name] = None
            idle = (old for old in self._auto
                    if old != name and self.tenants[old].inflight == 0)
            excess = max(0, len(self._auto) - TENANT_WINDOW)
            for old in list(itertools.islice(idle, excess)):
                del self._auto[old], self.tenants[old]
        return state

    # -- submission ------------------------------------------------------
    async def submit(self, host_input: np.ndarray, params: Dict, *,
                     tenant: str = DEFAULT_TENANT,
                     priority: Optional[Priority] = None) -> ServeResult:
        """Admit one request and await its result.

        Raises :class:`~repro.errors.AdmissionError` when shed at the
        door, :class:`~repro.errors.ServeError` when the server is
        closed, or the request's own execution failure.
        """
        if self._closed:
            raise ServeError("server is not accepting requests",
                             tenant=tenant, reason="closed")
        state = self.tenant(tenant)
        if priority is None:
            priority = state.config.priority
        priority = Priority(priority)
        state.submitted += 1
        self.metrics.submitted += 1
        try:
            self._policy.admit(self._pending, state, priority)
        except AdmissionError as exc:
            state.rejected += 1
            self.metrics.record_rejection(exc.reason or "rejected")
            raise
        self._seq += 1
        request = PendingRequest(
            seq=self._seq, tenant=tenant, priority=priority,
            host_input=host_input, params=dict(params),
            key=bucket_key(params), future=self._loop.create_future())
        self._pending += 1
        state.inflight += 1
        self._batcher.add(request)
        self._wakeup.set()
        return await request.future

    # -- dispatch --------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Form and run one group each time the dispatch thread is free,
        until the server is closed and nothing is left waiting."""
        while self._batcher or not self._closed:
            if not self._batcher:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            group = self._batcher.take()
            dispatched_at = time.perf_counter()
            try:
                entries = await self._loop.run_in_executor(
                    self._executor, self._run_group, group)
            except Exception as exc:     # pragma: no cover - defensive
                entries = [exc] * len(group)
            self._resolve(group, entries, dispatched_at)

    def _resolve(self, group: List[PendingRequest], entries,
                 dispatched_at: float) -> None:
        done = time.perf_counter()
        for request, entry in zip(group, entries):
            state = self.tenant(request.tenant)
            self._pending -= 1
            state.inflight -= 1
            if isinstance(entry, BaseException):
                state.failed += 1
                self.metrics.record_failure()
                if not request.future.done():
                    request.future.set_exception(entry)
                continue
            entry.stage_seconds["queue"] = max(
                dispatched_at - request.submitted, 0.0)
            state.completed += 1
            self.metrics.record_completion(done - request.submitted,
                                           entry.stage_seconds)
            if not request.future.done():
                request.future.set_result(entry)

    # -- group execution (single executor thread) ------------------------
    def _run_group(self, group: List[PendingRequest]) -> List:
        """Execute one coalesced group; one entry per request.

        Runs on the dispatch executor thread — the only thread that
        ever touches the compiled program, so it needs no locking.
        """
        if self._should_fuse(group):
            try:
                return self._run_fused(group)
            except Exception:
                # Fused execution is all-or-nothing; fall back to
                # per-item dispatch so only the offending request fails.
                self.metrics.fused_fallbacks += 1
        return self._run_unfused(group)

    def _should_fuse(self, group: List[PendingRequest]) -> bool:
        axis = self.config.fuse_axis
        if axis is None or len(group) < 2:
            return False
        params = group[0].params
        key = freeze_scalars(params)
        verdict = self._fusable.get(key)
        if verdict is None:
            verdict = linearly_batchable(self.compiled, params, axis)
            self._fusable[key] = verdict
        if not verdict:
            return False
        gain = self._predicted_fuse_gain(params, len(group))
        return gain >= FUSE_MIN_GAIN

    def _select(self, params: Dict):
        """The chain ``run_batch`` would select for ``params`` under the
        configured input location and placement pin."""
        options = self.config.options
        return self.compiled.select(params, input_on_host=options.location,
                                    placement=options.placement)

    def _predicted_fuse_gain(self, params: Dict, k: int) -> float:
        """Model-predicted speedup of one fused run over ``k`` solo runs.

        Uses the same (memoized) cost model the selector rides: the
        group's base-binding plan chain is priced at the base and fused
        sizes.  A high ratio means the fused run amortizes per-launch
        overhead; a ratio near ``1`` means the variant's cost is already
        linear in the stream axis and fusion buys nothing.
        """
        plans = self._select(params)
        fused = dict(params)
        fused[self.config.fuse_axis] = int(params[self.config.fuse_axis]) * k
        base = chain_seconds(self.compiled.cost, plans, params)
        fused_cost = chain_seconds(self.compiled.cost, plans, fused)
        return fuse_gain(base, fused_cost, k)

    def _run_fused(self, group: List[PendingRequest]) -> List:
        started = time.perf_counter()
        k = len(group)
        axis = self.config.fuse_axis
        base_params = dict(group[0].params)
        fused_params = dict(base_params)
        fused_params[axis] = int(base_params[axis]) * k
        fused_input = np.concatenate(
            [np.asarray(r.host_input).reshape(-1) for r in group])
        # Select at the *base* binding and force that chain on the fused
        # run: fusion is execution-level packing, not a re-selection.
        # Letting the fused size re-select can pick a variant with a
        # different reduction blocking, whose outputs are not
        # bit-identical to what each request would have produced alone.
        base_plans = self._select(base_params)
        force = {segment.name: plan.strategy
                 for segment, plan in zip(self.compiled.segments,
                                          base_plans)}
        run = self.compiled.run(fused_input, fused_params, force=force,
                                options=self.config.options)
        wall = time.perf_counter() - started
        self.metrics.record_dispatch(k, fused=True)
        per_request = len(run.output) // k
        stage = {
            "batch": wall,
            "select": run.stage_seconds.get("select", 0.0) / k,
            "kernel": run.stage_seconds.get("kernel", 0.0) / k,
        }
        entries = []
        for index, request in enumerate(group):
            output = run.output[index * per_request:
                                (index + 1) * per_request].copy()
            entries.append(ServeResult(
                output=output, tenant=request.tenant,
                priority=request.priority, batch_size=k, fused=True,
                stage_seconds=dict(stage), run=run))
        return entries

    def _run_unfused(self, group: List[PendingRequest]) -> List:
        started = time.perf_counter()
        outcome = self.compiled.run_batch(
            [r.host_input for r in group],
            [r.params for r in group],
            options=self.config.options)
        wall = time.perf_counter() - started
        self.metrics.record_dispatch(len(group), fused=False)
        entries: List = []
        for index, request in enumerate(group):
            error = outcome.errors.get(index)
            if error is not None:
                entries.append(error)
                continue
            run = outcome.results[index]
            entries.append(ServeResult(
                output=run.output, tenant=request.tenant,
                priority=request.priority, batch_size=len(group),
                fused=False,
                stage_seconds={
                    "batch": wall,
                    "select": run.stage_seconds.get("select", 0.0),
                    "kernel": run.stage_seconds.get("kernel", 0.0),
                },
                run=run))
        return entries
