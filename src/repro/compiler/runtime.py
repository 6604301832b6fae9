"""Compiled programs and runtime kernel management (§3).

A :class:`CompiledProgram` is Adaptic's output: the segment chain with all
surviving kernel variants.  At execution time the runtime kernel-management
unit inspects the actual input parameters, picks the fastest variant, and
runs it.  Selection has a fast path and an exact fallback:

* **dispatch tables** — :meth:`bake_decision_tables` (run automatically
  after :meth:`prune_variants`) precompiles each segment's winner per
  region of the declared input box (a one-axis box is the paper's list
  of subranges); an in-range ``select()`` is then a tree walk with
  *zero* model evaluations;
* **model-argmin fallback** — out-of-box, unbaked, or
  device-resident inputs are resolved exactly, "a handful of closed-form
  evaluations completely executed on the CPU during the initial data
  transfer" — now memoized per ``(plan, scalar params)`` in a
  :class:`~repro.compiler.stats.CostCache` shared by every compile-time
  analysis and experiment driver.

Every model evaluation, cache hit, table hit/fallback and the select()
wall-clock is counted in :attr:`CompiledProgram.stats`.

A selection then runs as one schedule of explicit :class:`Step` s: the
executor performs its PCIe hops and ``transfer_seconds`` prices the same
hop steps, so what is priced is what runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import itertools
import math
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..artifacts import (ArtifactBundle, BUNDLE_SCHEMA_VERSION,
                         decode_ndarray, decode_scalars, encode_ndarray,
                         encode_scalars, program_fingerprint, _repro_version)
from ..errors import (BundleFormatError, BundleProgramError, CalibrationError,
                      CompileError, KernelExecutionError, KernelTimeoutError,
                      ModelSweepError, ReproError, SelectionError)
from ..faults import KIND_NAN, KIND_RAISE, KIND_TIMEOUT
from ..gpu import Device, ExecMode, GPUSpec, MODE_REFERENCE
from ..perfmodel import AxisSpec, CalibrationStore, FeedbackConfig, \
    PerformanceModel, RegionTable, Variant, geometric_points, hop_seconds, \
    layout_transform_seconds, size_bucket, sweep_region
from .exprgen import COMPILE_COUNTER
from .plans import LAYOUT_INTERLEAVED, LAYOUT_ROWS
from .plans.base import IN, FrozenParams, KernelPlan, RESTRUCTURE_COUNTER, \
    freeze_scalars
from .segments import RegionDispatch, Segment
from .stats import CostCache, SelectionStats

#: Layouts that coincide with canonical stream order (no host-side
#: restructuring).
_CANONICAL = {LAYOUT_INTERLEAVED, LAYOUT_ROWS}

#: Relative calibration-factor change past which feedback re-sweeps the
#: observed segment's dispatch table around the binding.
REBAKE_THRESHOLD = 0.25


class InputLocation(str, enum.Enum):
    """Where the program input lives when ``run()`` / ``select()`` is called.

    ``HOST`` inputs can be restructured on the host before the H2D copy;
    ``DEVICE`` inputs (e.g. a matrix reused across solver iterations) pin
    the first segment to plans that need no host-side staging.
    """

    HOST = "host"
    DEVICE = "device"

    def __str__(self) -> str:
        return self.value

    @property
    def on_host(self) -> bool:
        return self is InputLocation.HOST


def _members(enum_cls) -> List[str]:
    return [f"{enum_cls.__name__}.{member.name}" for member in enum_cls]


@dataclasses.dataclass(frozen=True)
class RunOptions:
    """Execution options for ``run`` / ``warmup`` / ``run_batch`` /
    ``run_many`` / ``recalibrate`` (and, via
    :class:`~repro.serve.ServeConfig`, the serving front door).

    The one way to say how to run: a frozen value, validated once at
    construction, built once and reused across calls.
    """

    #: Executor path; ``None`` defers to the program's default mode.
    exec_mode: Optional[ExecMode] = None
    #: Where the input lives when the call is made.
    location: InputLocation = InputLocation.HOST
    #: Fold measured times back into calibration (bool, or a
    #: :class:`FeedbackConfig` overriding the program's policy).
    feedback: Union[bool, FeedbackConfig] = False
    #: Placement constraint: ``"auto"`` lets the cost model choose per
    #: segment, ``"gpu"`` / ``"cpu"`` pin every segment that has a plan
    #: on that side (segments without one keep their only placement).
    placement: str = "auto"

    def __post_init__(self):
        if self.exec_mode is not None \
                and not isinstance(self.exec_mode, ExecMode):
            raise ValueError(
                f"unknown exec_mode {self.exec_mode!r}; expected None or "
                f"one of {_members(ExecMode)}")
        if not isinstance(self.location, InputLocation):
            raise ValueError(
                f"unknown location {self.location!r}; expected one of "
                f"{_members(InputLocation)}")
        if self.placement not in ("auto", "gpu", "cpu"):
            raise ValueError(
                f"unknown placement {self.placement!r}; expected "
                f"'auto', 'gpu' or 'cpu'")


class _CalibratedCost:
    """Duck-typed :class:`CostCache` view with calibration factors applied.

    Delegates the raw prediction to the shared memoized cache (counters
    intact), then multiplies by the plan family's learned scale at the
    binding's size bucket.  Calibrated values are never written back into
    the cache — factors drift, memoized raw costs do not.
    """

    def __init__(self, cost: CostCache, store: CalibrationStore):
        self._cost = cost
        self._store = store

    def plan_seconds(self, plan: KernelPlan, params) -> float:
        raw = self._cost.plan_seconds(plan, params)
        return raw * self._store.scale(plan.family, size_bucket(params))


@dataclasses.dataclass
class SegmentExecution:
    """What ran for one segment."""

    segment: str
    kind: str
    strategy: str
    predicted_seconds: float
    optimizations: List[str]
    #: Measured wall-clock of this segment's ``plan.execute`` (includes
    #: any in-execute compilation on a cold run; warm runs are pure
    #: kernel time).  The feedback layer's wall-clock observation source.
    measured_seconds: float = 0.0


@dataclasses.dataclass
class BatchOutcome:
    """Per-index outcome of one :meth:`CompiledProgram.run_batch` call.

    ``results[i]`` is the item's :class:`RunResult` or ``None`` when it
    failed; ``errors`` maps each failed index to its exception.  The
    serving front door consumes this directly (one failed request must
    resolve its own future without disturbing batch-mates);
    :meth:`CompiledProgram.run_many` wraps it back into the historical
    raise-on-any-failure contract.
    """

    results: List[Optional["RunResult"]]
    errors: Dict[int, BaseException]

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclasses.dataclass
class RunResult:
    """Functional output plus the modeled execution report."""

    output: np.ndarray
    selections: List[SegmentExecution]
    predicted_kernel_seconds: float
    transfer_seconds: float
    #: Measured wall-clock per pipeline stage of this run:
    #: ``select`` / ``restructure`` / ``h2d`` / ``kernel`` / ``d2h`` /
    #: ``compile``.  The kernel stage excludes compile time so a warm run
    #: is directly comparable to a cold one.
    stage_seconds: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def predicted_total_seconds(self) -> float:
        return self.predicted_kernel_seconds + self.transfer_seconds

    def strategy_of(self, segment: str) -> str:
        for sel in self.selections:
            if sel.segment == segment:
                return sel.strategy
        raise SelectionError(
            f"no segment {segment!r} in this run; executed segments: "
            f"{[sel.segment for sel in self.selections]}", segment=segment)


@dataclasses.dataclass(frozen=True)
class Step:
    """One action of a selection's schedule (:meth:`CompiledProgram._steps`).

    ``kind`` is ``restructure`` (host-side layout staging of a host
    input), ``resident`` (a device-resident input materialized without a
    transfer), ``h2d`` / ``d2h`` (one PCIe hop in front of segment
    ``index``, with its modeled ``nbytes`` and ``seconds``) or ``kernel``
    / ``host`` (segment ``index`` on the GPU / the CPU).
    """

    kind: str
    index: int
    nbytes: int = 0
    seconds: float = 0.0


#: Stage each step kind's wall-clock lands on (``resident`` moves no
#: data and is not timed).
_STEP_STAGE = {"restructure": "restructure", "h2d": "h2d", "d2h": "d2h",
               "kernel": "kernel", "host": "kernel"}


class CompiledProgram:
    """Adaptic's output: selectable kernel variants per segment."""

    def __init__(self, program, spec: GPUSpec, model: PerformanceModel,
                 segments: List[Segment], options):
        self.program = program
        self.spec = spec
        self.model = model
        self.segments = segments
        self.options = options
        #: Memoized cost layer + observability counters (repro.compiler.stats).
        self.cost = CostCache(model)
        #: Element type used on the PCIe wire for program inputs/outputs.
        #: Both the transfer-time model and ``run()``'s input staging cast
        #: to this dtype, so predicted and measured transfers agree.
        self.wire_dtype = np.dtype(np.float64)
        #: Per-exec-mode devices owned by this program (used when ``run()``
        #: is called without an explicit device) so the buffer arena stays
        #: warm across calls.
        self._run_devices: Dict[str, Device] = {}
        #: Guards that table: a ``Server``'s dispatch thread and its
        #: caller can both reach it.
        self._device_lock = threading.Lock()
        #: Whether the compile options made placement a selection axis
        #: (CPU plan variants priced against GPU ones, boundary transfer
        #: and layout costs included in sweeps and argmin fallback).
        self._placement = bool(getattr(options, "placement", False))
        #: Measured-feedback state: per-family EWMA calibration factors,
        #: probe budgets, quarantines (repro.perfmodel.calibration).
        self.calibration = CalibrationStore()
        #: Policy for the feedback loop (margin, probe budget, observer).
        self.feedback = FeedbackConfig()
        #: Optional :class:`~repro.faults.FaultInjector` (from
        #: ``options.faults``) consulted around every segment execution
        #: and threaded into program-owned devices.
        self.faults = getattr(options, "faults", None)
        #: Exec mode used when neither ``run()`` nor ``run_many()`` names
        #: one; the owned devices honor it.
        self.default_exec_mode = MODE_REFERENCE
        #: Serializes quarantine + re-selection during failure recovery
        #: (the cost cache and calibration store are unsynchronized, and
        #: a ``Server``'s dispatch thread and its caller share one
        #: program).
        self._quarantine_lock = threading.Lock()

    @property
    def stats(self) -> SelectionStats:
        """Selection counters for this program (model evals, hits, ...)."""
        return self.cost.stats

    def plan_seconds(self, plan: KernelPlan,
                     params: Dict[str, float]) -> float:
        """Memoized model-predicted time of one plan at one input."""
        return self.cost.plan_seconds(plan, params)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def _eligible(self, segment: Segment, from_host: bool,
                  params: Optional[Dict[str, float]] = None
                  ) -> List[KernelPlan]:
        if from_host:
            plans = segment.plans
        else:
            canonical = [p for p in segment.plans
                         if p.input_layout in _CANONICAL]
            plans = canonical or segment.plans
        if params is not None and self.calibration.has_quarantines():
            bucket = size_bucket(params)
            healthy = [p for p in plans
                       if not self.calibration.is_quarantined(p.strategy,
                                                              bucket)]
            # All-quarantined: serve the unfiltered list as a last resort
            # rather than failing selection outright.
            plans = healthy or plans
        return plans

    def _selection_cost(self):
        """Cost view dispatch decisions use: calibrated iff feedback has
        observed anything (or a model bias is injected); the raw memo
        otherwise, so a program that never sees feedback selects — and
        counts — identically to one without the calibration layer."""
        if self.calibration.is_identity():
            return self.cost
        return _CalibratedCost(self.cost, self.calibration)

    def _hop_bytes(self, index: int, params: Dict[str, float]) -> int:
        """Bytes one PCIe hop in front of segment ``index`` moves: the
        segment's input, or the chain's output for ``index ==
        len(segments)`` — counted in :attr:`wire_dtype`, the dtype
        ``run()`` stages data in."""
        if index < len(self.segments):
            count = self.segments[index].input_size(params)
        else:
            count = self.segments[-1].output_size(params)
        return count * self.wire_dtype.itemsize

    def _hops(self, index: int, side: str, prev: str,
              params: Dict[str, float]
              ) -> Tuple[Optional[Step], Optional[Step]]:
        """The hop rule: the PCIe hops around segment ``index`` running on
        ``side`` while the data is on side ``prev``.

        Returns ``(entry, exit)``: an entry hop when the sides differ,
        and the exit D2H when the segment ends the chain on the GPU —
        each a :class:`Step` sized by :meth:`_hop_bytes` and priced by
        :func:`hop_seconds`, or ``None``.  Both the executed schedule
        (:meth:`_steps`) and placement pricing (:meth:`_placement_extra`)
        place their hops here.
        """
        def hop(kind: str, at: int) -> Step:
            nbytes = self._hop_bytes(at, params)
            return Step(kind, at, nbytes=nbytes, seconds=hop_seconds(nbytes))

        entry = exit_ = None
        if side != prev:
            entry = hop("h2d" if side == "gpu" else "d2h", index)
        if index + 1 == len(self.segments) and side == "gpu":
            exit_ = hop("d2h", index + 1)
        return entry, exit_

    def _placement_extra(self, index: int, plan: KernelPlan,
                         params: Dict[str, float], prev: Optional[str],
                         entry_on_host: bool = True) -> float:
        """Additive boundary cost of placing ``plan`` at segment ``index``
        after a plan on side ``prev``.

        Placement-aware pricing charges the hops :meth:`_hops` places
        for this plan alone (host entry counts as the CPU side, a
        device-resident entry as the GPU side), plus a host-side layout
        gather when a non-canonical GPU plan stages a host input.  Used
        only when placement is a selection axis, so legacy programs rank
        variants exactly as before.
        """
        side = plan.placement
        if index == 0:
            prev = "cpu" if entry_on_host else "gpu"
        entry, exit_ = self._hops(index, side, prev, params)
        extra = 0.0
        if entry is not None:
            extra += entry.seconds
        if index == 0 and entry_on_host and side == "gpu" \
                and plan.input_layout not in _CANONICAL:
            extra += layout_transform_seconds(self._hop_bytes(0, params))
        if exit_ is not None:
            extra += exit_.seconds
        return extra

    def _argmin(self, cost, index: int, plans: Sequence[KernelPlan],
                params: Dict[str, float], prev: Optional[str],
                entry_on_host: bool) -> KernelPlan:
        """Exact model-argmin over ``plans`` for segment ``index``.

        With placement compiled as a selection axis each candidate also
        pays its boundary terms (:meth:`_placement_extra`) after a plan
        on side ``prev``; otherwise this is the segment's kernel-cost
        argmin.
        """
        segment = self.segments[index]
        if not self._placement:
            return segment.best_plan(cost, params, plans=plans)
        best, best_seconds = None, math.inf
        for plan in plans:
            seconds = cost.plan_seconds(plan, params) \
                + self._placement_extra(index, plan, params, prev,
                                        entry_on_host)
            if math.isfinite(seconds) and seconds < best_seconds:
                best, best_seconds = plan, seconds
        if best is None:
            raise SelectionError(
                f"no plan of segment {segment.name!r} has a finite "
                f"placed cost for params {dict(freeze_scalars(params))}",
                segment=segment.name)
        return best

    @staticmethod
    def _restrict_placement(plans: Sequence[KernelPlan],
                            placement: str) -> List[KernelPlan]:
        """Plans on the requested side; all of them when none is there
        (a segment without a CPU variant keeps its GPU one — pinning
        constrains what it can, it never makes a segment unrunnable)."""
        if placement == "auto":
            return list(plans)
        matching = [p for p in plans if p.placement == placement]
        return matching or list(plans)

    def select(self, params: Dict[str, float],
               force: Optional[Dict[str, str]] = None, *,
               input_on_host: InputLocation = InputLocation.HOST,
               placement: str = "auto") -> List[KernelPlan]:
        """Pick one plan per segment for this input (runtime management).

        ``input_on_host=InputLocation.DEVICE`` marks inputs already
        resident in device memory (e.g. a matrix reused across solver
        iterations): host-side memory restructuring is then unavailable
        to the first segment, and forcing it a plan that needs it raises
        :class:`SelectionError`.

        A segment with a baked, applicable dispatch table is decided by
        lookup with zero model evaluations; everything else falls back to
        the exact (memoized) model-argmin — calibrated by the measured
        feedback factors when any have been learned.  With placement
        compiled as a selection axis the fallback prices each candidate's
        boundary transfers (and the baked tables already did), so a CPU
        variant wins exactly where hops plus host compute beat the GPU
        chain.  ``placement="gpu"`` / ``"cpu"`` pins every segment that
        has a plan on that side (overriding baked winners on the other
        side); the default ``"auto"`` keeps the zero-evaluation table
        path.
        """
        started = time.perf_counter()
        stats = self.stats
        stats.select_calls += 1
        force = force or {}
        cost = self._selection_cost()
        chosen: List[KernelPlan] = []
        from_host = input_on_host.on_host
        quarantined = self.calibration.has_quarantines()
        bucket = size_bucket(params) if quarantined else None
        prev: Optional[str] = None
        for index, segment in enumerate(self.segments):
            if segment.name in force:
                plan = segment.plan_named(force[segment.name])
                if index == 0 and plan not in self._eligible(segment,
                                                             from_host):
                    raise SelectionError(
                        f"forced plan {plan.strategy!r} needs host-side "
                        f"{plan.input_layout!r} staging, but the input of "
                        f"segment {segment.name!r} is device-resident",
                        segment=segment.name, plan=plan.strategy)
                stats.forced_selections += 1
            else:
                plan = None
                if segment.dispatch is not None:
                    winner = segment.dispatch.lookup(params, from_host)
                    if (winner is not None and quarantined
                            and self.calibration.is_quarantined(winner,
                                                                bucket)):
                        winner = None   # baked winner is quarantined
                    if (winner is not None and placement != "auto"
                            and segment.plan_named(winner) not in
                            self._restrict_placement(segment.plans,
                                                     placement)):
                        winner = None   # baked winner is on the wrong side
                    if winner is not None:
                        plan = segment.plan_named(winner)
                        stats.table_hits += 1
                if plan is None:
                    if segment.dispatch is not None:
                        stats.table_fallbacks += 1
                    eligible = self._restrict_placement(
                        self._eligible(segment, from_host, params),
                        placement)
                    plan = self._argmin(cost, index, eligible, params, prev,
                                        input_on_host.on_host)
            chosen.append(plan)
            prev = plan.placement
            from_host = False
        stats.select_seconds += time.perf_counter() - started
        return chosen

    def select_argmin(self, params: Dict[str, float], *,
                      model: Optional[PerformanceModel] = None,
                      input_on_host: InputLocation = InputLocation.HOST,
                      placement: str = "auto") -> List[KernelPlan]:
        """Exact per-call argmin selection over a bare model.

        What ``select()`` would cost without the baked fast path or the
        memoized cache: every call re-evaluates the analytic model for
        every eligible candidate.  The dispatch-cost benchmarks use this
        as the un-amortized baseline, and tests use it to cross-check
        baked winners.  Counters are untouched.
        """
        cost = CostCache(model or PerformanceModel(self.spec))
        from_host = input_on_host.on_host
        chosen: List[KernelPlan] = []
        prev: Optional[str] = None
        for index, segment in enumerate(self.segments):
            eligible = self._restrict_placement(
                self._eligible(segment, from_host, params), placement)
            plan = self._argmin(cost, index, eligible, params, prev,
                                input_on_host.on_host)
            chosen.append(plan)
            prev = plan.placement
            from_host = False
        return chosen

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predicted_seconds(self, params: Dict[str, float],
                          include_transfers: bool = True,
                          force: Optional[Dict[str, str]] = None, *,
                          input_on_host: InputLocation = InputLocation.HOST,
                          placement: str = "auto") -> float:
        plans = self.select(params, force, input_on_host=input_on_host,
                            placement=placement)
        cost = self._selection_cost()
        total = sum(cost.plan_seconds(plan, params) for plan in plans)
        if include_transfers:
            total += self.transfer_seconds(params, location=input_on_host,
                                           placements=self._sides(plans))
        return total

    def transfer_seconds(self, params: Dict[str, float], *,
                         location: InputLocation = InputLocation.HOST,
                         placements: Optional[Sequence[str]] = None
                         ) -> float:
        """Modeled transfer time of one run, by direction and placement.

        The hop steps of :meth:`_steps` — the ones ``run()`` executes —
        summed in order: a device-resident input pays no entry H2D, a
        CPU-placed prefix runs straight off the host buffer, each
        CPU<->GPU boundary inside the chain pays exactly one hop sized
        by the segment input crossing it, and only a chain ending on the
        GPU pays the exit D2H.  ``placements`` (one ``"cpu"`` /
        ``"gpu"`` per segment) defaults to an all-GPU chain.  Hops are
        sized by :attr:`wire_dtype`, so the model and the recorded
        transfers count the same bytes.
        """
        sides = (tuple(placements) if placements is not None
                 else ("gpu",) * len(self.segments))
        return sum(step.seconds
                   for step in self._steps(params, location, sides))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _resolve_device(self, device: Optional[Device],
                        exec_mode: Optional[ExecMode]) -> Device:
        """The device to run on; owned per exec mode when none is passed.

        Owned devices persist across ``run()`` calls so their buffer
        arenas stay warm — the second run at a shape recycles the first
        run's allocations instead of making fresh ones.  Their transfer
        log holds only the current run's records: nothing reads it
        across runs (:attr:`RunResult.transfer_seconds` is priced from
        the schedule), and a long-lived server would otherwise grow it
        by two records per request.  A passed-in device keeps its whole
        log.
        """
        if device is not None:
            if exec_mode is not None:
                device.exec_mode = exec_mode
            return device
        mode = exec_mode or self.default_exec_mode
        with self._device_lock:
            owned = self._run_devices.get(mode)
            if owned is None:
                owned = Device(self.spec, exec_mode=mode,
                               fault_injector=self.faults)
                self._run_devices[mode] = owned
            owned.transfers.clear()
        return owned

    def _validate_input(self, host_input: np.ndarray,
                        params: Dict[str, float]) -> np.ndarray:
        host_input = np.asarray(host_input,
                                dtype=self.wire_dtype).reshape(-1)
        if self.program.input_size is not None:
            expected = self.program.input_size.evaluate(params)
        else:
            expected = self.segments[0].input_size(params)
        if len(host_input) != expected:
            raise ValueError(
                f"program expects {expected} input elements for these "
                f"parameters, got {len(host_input)}")
        return host_input

    def _sides(self, plans: Sequence[KernelPlan]) -> Tuple[str, ...]:
        """Where each selected plan runs.  Every plan is a GPU plan unless
        placement is a selection axis: a legacy program runs its
        CPU-tagged plans through their device ``execute`` path."""
        if self._placement:
            return tuple(plan.placement for plan in plans)
        return ("gpu",) * len(plans)

    def _steps(self, params: Dict[str, float], location: InputLocation,
               sides: Sequence[str]) -> Tuple[Step, ...]:
        """The schedule of one selection: the steps a run executes.

        The data enters on the input's side — a host input is staged by
        the first plan's ``restructure``, a device-resident one is
        materialized ``resident`` without a transfer.  Each segment then
        runs on its side from ``sides``, with the hops :meth:`_hops`
        places around it.
        """
        side = "cpu" if location.on_host else "gpu"
        steps = [Step("restructure" if location.on_host else "resident", 0)]
        for index in range(len(self.segments)):
            entry, exit_ = self._hops(index, sides[index], side, params)
            side = sides[index]
            if entry is not None:
                steps.append(entry)
            steps.append(Step("kernel" if side == "gpu" else "host", index))
            if exit_ is not None:
                steps.append(exit_)
        return tuple(steps)

    def _execute_plans(self, host_input: np.ndarray,
                       params: Dict[str, float],
                       plans: List[KernelPlan], device: Device,
                       location: InputLocation) -> RunResult:
        """Run one selected plan chain.

        One loop over the selection's schedule (:meth:`_steps`): each
        step runs and its wall-clock lands on its stage, and the hop
        steps' modeled seconds, summed in order, are the run's
        ``transfer_seconds`` — the order :attr:`Device.transfer_seconds`
        sums the records those hops leave, so the two agree bit for bit.
        Each executed plan is priced through :attr:`cost`.  The stage
        wall-clocks and the compile and permutation counts of what the
        steps did go into :attr:`stats` whether or not the chain
        completes (selection prices plans without compiling them);
        counting the run is the caller's.
        """
        stage = {"select": 0.0, "restructure": 0.0, "h2d": 0.0,
                 "kernel": 0.0, "d2h": 0.0, "compile": 0.0}
        compile_before = COMPILE_COUNTER.snapshot()
        restructure_before = RESTRUCTURE_COUNTER.snapshot()
        selections: List[SegmentExecution] = []
        predicted = 0.0
        steps = self._steps(params, location, self._sides(plans))
        segments = self.segments
        value = host_input      # a host array or a device buffer
        try:
            with device.scope():
                for step in steps:
                    kind, index = step.kind, step.index
                    started = time.perf_counter()
                    if kind == "kernel":
                        value = self._execute_segment(
                            index, plans[index], device, value, params)
                    elif kind == "host":
                        value = self._execute_segment(
                            index, plans[index], None, value, params)
                    elif kind == "h2d":
                        value = device.to_device(
                            value, name=f"{segments[index].name}.in")
                    elif kind == "d2h":
                        value = device.to_host(value)
                    elif kind == "restructure":
                        value = plans[0].restructure_input(value, params)
                    else:               # resident: nothing moves
                        value = device.alloc_from(
                            value, name=f"{segments[0].name}.in")
                        continue
                    wall = time.perf_counter() - started
                    stage[_STEP_STAGE[kind]] += wall
                    if kind not in ("kernel", "host"):
                        continue
                    plan = plans[index]
                    seconds = self.cost.plan_seconds(plan, params)
                    predicted += seconds
                    selections.append(SegmentExecution(
                        segment=segments[index].name,
                        kind=segments[index].kind, strategy=plan.strategy,
                        predicted_seconds=seconds,
                        optimizations=list(plan.optimizations),
                        measured_seconds=wall))
        finally:
            # A failed attempt's partial work is counted too (the scope
            # above already released every buffer).
            compiled = COMPILE_COUNTER.since(compile_before)
            stage["compile"] = compiled.seconds
            # Compiles run inside plan.execute: take them off the kernel
            # wall.
            stage["kernel"] = max(0.0, stage["kernel"] - compiled.seconds)
            stats = self.stats
            stats.expr_compiles += compiled.total
            stats.restructure_builds += RESTRUCTURE_COUNTER.since(
                restructure_before).perm_builds
            stats.restructure_seconds += stage["restructure"]
            stats.h2d_seconds += stage["h2d"]
            stats.kernel_seconds += stage["kernel"]
            stats.d2h_seconds += stage["d2h"]
            stats.compile_seconds += stage["compile"]
        return RunResult(
            output=value, selections=selections,
            predicted_kernel_seconds=predicted,
            transfer_seconds=sum(step.seconds for step in steps),
            stage_seconds=stage)

    def _execute_segment(self, index: int, plan: KernelPlan,
                         device: Optional[Device], data,
                         params: Dict[str, float]):
        """One segment's plan with fault injection + error wrapping.

        ``device=None`` runs a CPU-placed plan on the host array ``data``
        (:meth:`KernelPlan.execute_host`) and returns a flat float64 host
        array; otherwise ``plan.execute`` consumes the device buffer
        ``data``.  Either way every failure leaves here as a
        :class:`KernelExecutionError` carrying the segment name, strategy
        tag, scalar params and the segment's chain position — the context
        :meth:`_recover_segment` needs to quarantine and re-select.  An
        injected NaN fault poisons the output, and with an injector
        installed a NaN output raises.  With no injector configured this
        adds one ``None`` check to the hot path and nothing else.
        """
        segment = self.segments[index]
        injector = self.faults
        fault = injector.on_execute(plan) if injector is not None else None

        def context():
            return {"segment": segment.name, "plan": plan.strategy,
                    "params": dict(freeze_scalars(params)),
                    "segment_index": index}

        if fault is not None and fault.kind != KIND_NAN:
            cls = (KernelTimeoutError if fault.kind == KIND_TIMEOUT
                   else KernelExecutionError)
            raise cls(
                f"injected {fault.kind} fault in plan {plan.strategy!r}",
                injected=True, kind=fault.kind, **context())
        try:
            if device is None:
                out = np.asarray(plan.execute_host(data, params),
                                 dtype=np.float64).reshape(-1)
            else:
                out = plan.execute(device, {IN: data}, params)
        except KernelExecutionError as exc:
            # Launch-scope injected faults and executor-level failures
            # (LaunchError, BarrierDivergenceError) arrive pre-typed;
            # fill in whatever context they are missing.
            for name, value in context().items():
                if getattr(exc, name) is None:
                    setattr(exc, name, value)
            raise
        except ReproError:
            raise
        except Exception as exc:
            raise KernelExecutionError(
                f"plan {plan.strategy!r} failed in segment "
                f"{segment.name!r}: {exc}", kind="crash",
                **context()) from exc
        if injector is not None:
            # Output poisoning is only detectable by looking; the check
            # runs solely when an injector is installed, so uninjected
            # serving pays nothing for it.
            values = out if device is None else getattr(out, "data", None)
            if (isinstance(values, np.ndarray)
                    and np.issubdtype(values.dtype, np.floating)):
                if fault is not None:      # KIND_NAN: poison the output
                    values.fill(np.nan)
                if np.isnan(values).any():
                    raise KernelExecutionError(
                        f"NaN output from plan {plan.strategy!r} in "
                        f"segment {segment.name!r}",
                        injected=fault is not None, kind=KIND_NAN,
                        **context())
        return out

    def _recover_segment(self, exc: KernelExecutionError,
                         params: Dict[str, float],
                         plans: List[KernelPlan], location: InputLocation,
                         placement: str = "auto"):
        """Quarantine the failed variant and re-select its segment.

        The replacement is the placement-priced argmin over the
        segment's surviving variants, restricted to the run's placement
        pin.  Returns ``(new_plans, newly_quarantined)`` or ``None``
        when the failure is terminal:
        the error carries no segment position, or the failed variant is
        the segment's last non-quarantined option (the last variant is
        never quarantined — serving something beats serving nothing).
        """
        index = exc.segment_index
        if index is None or not 0 <= index < len(self.segments):
            return None
        segment = self.segments[index]
        failed = plans[index]
        bucket = size_bucket(params)
        store = self.calibration
        with self._quarantine_lock:
            eligible = self._eligible(segment, location.on_host and index == 0)
            remaining = [p for p in eligible
                         if p is not failed
                         and not store.is_quarantined(p.strategy, bucket)]
            if not remaining:
                return None
            newly = store.quarantine(
                failed.strategy, bucket,
                reason=exc.kind or type(exc).__name__)
            try:
                replacement = self._argmin(
                    self._selection_cost(), index,
                    self._restrict_placement(remaining, placement), params,
                    plans[index - 1].placement if index else None,
                    location.on_host)
            except SelectionError:
                return None
        new_plans = list(plans)
        new_plans[index] = replacement
        return new_plans, newly

    def _execute_guarded(self, host_input: np.ndarray,
                         params: Dict[str, float],
                         plans: List[KernelPlan], device: Device,
                         location: InputLocation, placement: str = "auto"):
        """Retry-then-degrade wrapper around :meth:`_execute_plans`.

        On a variant failure the failed (strategy, size-bucket) pair is
        quarantined, the segment re-selected among the survivors under
        the run's ``placement`` pin, and the chain re-run (the failed
        attempt's scope already released its buffers, so retries recycle
        them).  Every attempt's counters go into :attr:`stats` as it
        happens; a terminal failure re-raises.  Returns ``(result,
        plans)`` where ``plans`` reflects any degraded substitution so
        callers can refresh their cached selection.
        """
        stats = self.stats
        reselect_total = 0.0
        retried = False
        while True:
            try:
                result = self._execute_plans(host_input, params, plans,
                                             device, location)
            except KernelExecutionError as exc:
                if exc.injected:
                    stats.faults_injected += 1
                # The quarantine + re-selection is selection work: its
                # wall-clock lands on the degraded run's ``select`` stage.
                reselect_started = time.perf_counter()
                recovered = self._recover_segment(exc, params, plans,
                                                  location, placement)
                reselect = time.perf_counter() - reselect_started
                stats.select_seconds += reselect
                reselect_total += reselect
                if recovered is None:
                    raise
                plans, newly = recovered
                stats.retries += 1
                if newly:
                    stats.quarantines += 1
                retried = True
                continue
            stats.runs += 1
            if retried:
                stats.degraded_runs += 1
                result.stage_seconds["select"] += reselect_total
            return result, plans

    def run(self, host_input: np.ndarray, params: Dict[str, float], *,
            options: Optional[RunOptions] = None,
            device: Optional[Device] = None,
            force: Optional[Dict[str, str]] = None) -> RunResult:
        """Execute functionally on the simulator device.

        A batch of one: the item runs through :meth:`run_batch`'s path
        (:meth:`_run_items`), and its own exception, if any, is raised.
        Execution options come in one :class:`RunOptions` value
        (``options=``; the defaults when omitted).

        ``options.location=InputLocation.DEVICE`` models data already
        resident on the device: selection is constrained to plans that
        need no host-side restructuring (the ``_eligible`` contract), and
        none is applied (a ``force`` needing it raises
        :class:`SelectionError`).

        ``options.exec_mode`` selects the executor path
        (:attr:`ExecMode.REFERENCE` or :attr:`ExecMode.VECTORIZED`); it
        overrides the mode of a passed-in ``device`` and otherwise
        selects a program-owned persistent device.  Both paths produce
        bit-identical outputs — vectorized is a fast path for kernels
        that carry a vector body, never a semantics change.

        Repeat runs at the same scalar parameters are the warm path: the
        selected plans serve compiled kernels and restructure
        permutations from their warm caches (zero compilations, zero
        permutation rebuilds) and, when no explicit ``device`` is passed,
        recycle device buffers through the owned device's arena.  Stage
        wall-clocks land on :attr:`RunResult.stage_seconds` and aggregate
        into :attr:`stats`.

        ``options.feedback=True`` folds this run's measured per-segment
        times back into :attr:`calibration` after execution (and may
        spend a bounded probe on a runner-up variant — see
        :meth:`_apply_feedback`); pass a :class:`FeedbackConfig` to
        override :attr:`feedback` for this call.  The default leaves the
        calibration state untouched.
        """
        outcome = self._run_items([host_input], [FrozenParams(params)],
                                  options or RunOptions(), force, device)
        if outcome.errors:
            raise outcome.errors[0]
        return outcome.results[0]

    def warmup(self, params: Dict[str, float], *,
               options: Optional[RunOptions] = None,
               force: Optional[Dict[str, str]] = None) -> RunResult:
        """Prime every warm cache for one parameter binding.

        Runs the program once on a zero input of the expected size:
        selection is decided (and memoized), per-plan kernels are
        compiled into the warm caches, restructure permutations are
        built, and the owned device's arena is stocked.  The next
        ``run()`` at these scalars is a pure warm path.  Accepts the
        same :class:`RunOptions` as :meth:`run`.
        """
        params = dict(params)
        if self.program.input_size is not None:
            expected = self.program.input_size.evaluate(params)
        else:
            expected = self.segments[0].input_size(params)
        zeros = np.zeros(int(expected), dtype=self.wire_dtype)
        return self.run(zeros, params, force=force, options=options)

    def run_batch(self, inputs: Sequence[np.ndarray],
                  params_list: Union[Dict[str, float],
                                     Sequence[Dict[str, float]]], *,
                  options: Optional[RunOptions] = None,
                  force: Optional[Dict[str, str]] = None) -> BatchOutcome:
        """Batch entry point with per-index outcomes and no batch abort.

        The serving front door's hook: identical semantics to
        :meth:`run_many` except that failures are *returned* — a
        :class:`BatchOutcome` carries every completed item's
        :class:`RunResult` and maps each failed index to its exception —
        so a caller multiplexing independent requests into one dispatch
        can fail exactly the poisoned request while its batch-mates
        complete.  The items run through :meth:`_run_items`, the path
        :meth:`run` takes with a batch of one: selection once per
        distinct scalar binding, then each item once, in order, on the
        calling thread and the program's own device.
        """
        inputs = list(inputs)
        if isinstance(params_list, dict):
            params_list = [FrozenParams(params_list)] * len(inputs)
        else:
            params_list = [FrozenParams(p) for p in params_list]
        if len(params_list) != len(inputs):
            raise ValueError(
                f"run_batch got {len(inputs)} inputs but "
                f"{len(params_list)} params")
        return self._run_items(inputs, params_list, options or RunOptions(),
                               force)

    def _run_items(self, inputs: Sequence[np.ndarray],
                   params_list: Sequence[FrozenParams],
                   options: RunOptions, force: Optional[Dict[str, str]],
                   device: Optional[Device] = None) -> BatchOutcome:
        """The one item path of :meth:`run` and :meth:`run_batch`.

        Each input is validated before its binding is selected, so a
        malformed one fails before any selection counter moves; each
        distinct scalar binding with a valid item is selected once (one
        timed ``select()`` under the options' location and placement
        pin).  Then the items run in order on ``device`` — the program's own device for the exec mode
        when ``None`` — each through :meth:`_execute_guarded`.  An item
        that degraded onto a replacement variant leaves its binding's
        selection on the replacement, so later items skip the
        quarantined variant outright.  A binding's select wall-clock is
        added to its first *completed* result (every other item reports
        only its own re-selection wall, if it degraded), so
        :meth:`SelectionStats.stage_summary` totals stay truthful.  With
        ``options.feedback`` that item's measurements are folded into
        :attr:`calibration` once the items are done, even when other
        items at the binding failed.
        """
        staged: List[Optional[np.ndarray]] = [None] * len(inputs)
        errors: Dict[int, BaseException] = {}
        selections: Dict[tuple, List[KernelPlan]] = {}
        select_seconds: Dict[tuple, float] = {}
        for index, (data, params) in enumerate(zip(inputs, params_list)):
            try:
                staged[index] = self._validate_input(data, params)
            except Exception as exc:
                errors[index] = exc
                continue
            key = freeze_scalars(params)
            if key not in selections:
                started = time.perf_counter()
                selections[key] = self.select(
                    params, force, input_on_host=options.location,
                    placement=options.placement)
                select_seconds[key] = time.perf_counter() - started
        results: List[Optional[RunResult]] = [None] * len(inputs)
        firsts: Dict[tuple, Tuple[int, List[KernelPlan]]] = {}
        for index, params in enumerate(params_list):
            if index in errors:
                continue
            key = freeze_scalars(params)
            try:
                result, plans = self._execute_guarded(
                    staged[index], params, selections[key],
                    self._resolve_device(device, options.exec_mode),
                    options.location, options.placement)
            except Exception as exc:
                errors[index] = exc
                continue
            results[index] = result
            selections[key] = plans
            if key not in firsts:
                firsts[key] = (index, plans)
                result.stage_seconds["select"] += select_seconds[key]
        if options.feedback:
            config = (options.feedback
                      if isinstance(options.feedback, FeedbackConfig)
                      else self.feedback)
            for index, plans in firsts.values():
                self._apply_feedback(
                    staged[index], params_list[index], plans,
                    results[index],
                    self._resolve_device(device, options.exec_mode),
                    options.location, config)
        return BatchOutcome(results=results, errors=dict(sorted(
            errors.items())))

    def run_many(self, inputs: Sequence[np.ndarray],
                 params_list: Union[Dict[str, float],
                                    Sequence[Dict[str, float]]], *,
                 options: Optional[RunOptions] = None,
                 force: Optional[Dict[str, str]] = None) -> List[RunResult]:
        """Serve a batch of inputs through one shared warm path.

        ``params_list`` is either one params dict broadcast over the
        batch or one dict per input.  A thin wrapper over
        :meth:`run_batch` keeping the historical contract: on any item
        failure the first error is raised (carrying ``batch_errors`` and
        ``partial_results``); callers that need per-index outcomes
        without an exception use :meth:`run_batch` directly.  Feedback
        for bindings whose first completed item succeeded is applied
        *before* the raise — completed measurements are never discarded.
        """
        outcome = self.run_batch(
            inputs, params_list, options=options, force=force)
        if outcome.errors:
            failed = sorted(outcome.errors)
            first = outcome.errors[failed[0]]
            if not isinstance(first, KernelExecutionError):
                wrapped = KernelExecutionError(
                    f"batch item {failed[0]} failed: {first}",
                    batch_index=failed[0])
                wrapped.__cause__ = first
                first = wrapped
            if first.batch_index is None:
                first.batch_index = failed[0]
            #: index -> exception for every failed item; completed items
            #: keep their results in ``partial_results``.
            first.batch_errors = dict(outcome.errors)
            first.partial_results = outcome.results
            raise first
        return outcome.results

    # ------------------------------------------------------------------
    # Measured feedback (online recalibration + mispredict re-selection)
    # ------------------------------------------------------------------
    def recalibrate(self, points: Sequence[Dict[str, float]], *,
                    options: Optional[RunOptions] = None,
                    force: Optional[Dict[str, str]] = None,
                    feedback: Optional[FeedbackConfig] = None
                    ) -> CalibrationStore:
        """Drive the feedback loop over a set of parameter bindings.

        With an ``observer`` configured (on ``feedback`` or
        :attr:`feedback`), each binding is selected and observed without
        executing — the cheap deterministic path the experiment drivers
        and tests use.  Without one, each binding is executed once via
        :meth:`warmup` with feedback enabled, so observations come from
        measured kernel wall-clock.  ``options`` carries the input
        location and placement pin every selection honors.  Returns
        :attr:`calibration`.
        """
        config = feedback or self.feedback
        opts = options or RunOptions()
        location = opts.location
        before = self.stats.snapshot()
        for params in points:
            params = dict(params)
            if config.observer is None:
                self.warmup(params, force=force,
                            options=dataclasses.replace(
                                opts, feedback=config))
                continue
            # Observations are free on the observer path, so drive each
            # binding to a fixed point: re-select and feed back until a
            # pass spends no probe (selection settled and every family
            # worth exploring at this bucket has been seen).  The
            # per-(segment, bucket) probe budget bounds the loop.
            while True:
                plans = self.select(params, force, input_on_host=location,
                                    placement=opts.placement)
                probes_before = self.stats.probe_runs
                self._apply_feedback(None, params, plans, None, None,
                                     location, config)
                if self.stats.probe_runs == probes_before:
                    break
        # Online subtree re-sweeps run mid-convergence: each rebuilds its
        # box under whatever per-bucket factors existed at that moment,
        # so boxes spanning not-yet-observed buckets keep biased cuts.
        # Close the loop: once the whole pass has been folded in, re-sweep
        # every table under the converged store if the pass re-swept any.
        if self.stats.since(before).table_rebakes \
                and not self.calibration.is_identity():
            for segment in self.segments:
                self._rebake_dispatch(segment)
        return self.calibration

    def save_calibration(self, path) -> None:
        """Persist the learned calibration factors as JSON.

        A warmed service restarts hot: :meth:`load_calibration` on a
        freshly compiled program restores the factors (and re-bakes its
        dispatch tables under them) without re-measuring anything.  The
        file is stamped with this runtime's arch fingerprint so it can
        never silently scale predictions on a different architecture.
        """
        self.calibration.arch_fingerprint = self.spec.fingerprint()
        self.calibration.save(path)

    def load_calibration(self, path, force: bool = False) -> None:
        """Restore factors saved by :meth:`save_calibration`.

        Raises :class:`CalibrationError` when the file was measured on a
        different architecture (``force=True`` applies it anyway).
        Every baked dispatch table is re-swept under the restored
        factors, so table lookups agree with what calibrated argmin
        would choose.
        """
        self.calibration.load(path, expected_arch=self.spec.fingerprint(),
                              force=force)
        if not self.calibration.is_identity():
            for segment in self.segments:
                self._rebake_dispatch(segment)

    # ------------------------------------------------------------------
    # Artifact bundles (zero-cold-start persistence)
    # ------------------------------------------------------------------
    def _identity_fingerprint(self) -> str:
        """Program + options identity in the bundle invalidation key."""
        return program_fingerprint(self.program, self.options.label(),
                                   threads=getattr(self.options, "threads",
                                                   None))

    def export_bundle(self, meta: Optional[Dict] = None) -> ArtifactBundle:
        """Assemble this program's complete warm state into a bundle.

        Captures the compile-time products the warm path needs —
        surviving variants, dispatch tables, restructure permutations,
        cost memo entries and the calibration store — keyed by (program
        IR fingerprint, arch fingerprint, repro version, schema
        version).  The bundle is data only: no code rides in it.
        :meth:`load_bundle` in a fresh process replays it so the first
        run needs zero model evaluations and zero permutation builds;
        that run renders only the expression functions of the plans it
        executes, as any cold plan does.
        """
        segments_payload = []
        for segment in self.segments:
            dispatch_payload = []
            if segment.dispatch is not None:
                d = segment.dispatch
                dispatch_payload.append({
                    "axes": [str(name) for name in d.axes],
                    "extras": encode_scalars(d.extras),
                    "from_host": bool(d.from_host),
                    "region": d.region.to_payload(),
                })
            permutations = []
            for plan in segment.plans:
                for size, scalars, perm in plan.export_permutations():
                    permutations.append({
                        "strategy": plan.strategy, "size": int(size),
                        "scalars": encode_scalars(scalars),
                        "perm": encode_ndarray(perm),
                    })
            segments_payload.append({
                "name": segment.name, "kind": segment.kind,
                "strategies": [p.strategy for p in segment.plans],
                "pruned": list(segment.pruned_strategies),
                "dispatch": dispatch_payload,
                "permutations": permutations,
            })

        plan_location = {id(plan): (segment.name, plan.strategy)
                         for segment in self.segments
                         for plan in segment.plans}
        costs = []
        for plan, scalars, seconds in self.cost.entries():
            location = plan_location.get(id(plan))
            if location is None:
                continue          # memo entry for a since-pruned plan
            costs.append({"segment": location[0], "strategy": location[1],
                          "scalars": encode_scalars(scalars),
                          "seconds": float(seconds)})

        self.calibration.arch_fingerprint = self.spec.fingerprint()
        return ArtifactBundle(
            schema_version=BUNDLE_SCHEMA_VERSION,
            repro_version=_repro_version(),
            program_fingerprint=self._identity_fingerprint(),
            arch_fingerprint=self.spec.fingerprint(),
            program_name=self.program.name,
            arch_name=self.spec.name,
            options_label=self.options.label(),
            wire_dtype=self.wire_dtype.str,
            segments=segments_payload,
            costs=costs,
            calibration=self.calibration.to_dict(),
            meta=dict(meta or {}))

    def save_bundle(self, path, meta: Optional[Dict] = None
                    ) -> ArtifactBundle:
        """Write :meth:`export_bundle`'s result to ``path`` atomically."""
        bundle = self.export_bundle(meta)
        bundle.save(path)
        return bundle

    def load_bundle(self, bundle: Union[ArtifactBundle, str], *,
                    force: bool = False) -> ArtifactBundle:
        """Inject a bundle's warm state into this (cold) program.

        Validates the full invalidation key and stages every piece of
        state — segment/strategy resolution, dispatch tables,
        permutations, calibration — *before* mutating anything, so a
        stale bundle raises the precise :class:`BundleError` subclass
        and leaves the program untouched (never half-applied).  After a
        successful load the first ``run()`` selects from seeded cost
        memo entries or baked tables (zero model evaluations) and
        restructures with seeded permutations (zero builds).  Unknown
        payload keys, such as the ``sources`` older bundles carried,
        are ignored.  ``force=True`` only relaxes the repro-version
        check.
        """
        if not isinstance(bundle, ArtifactBundle):
            bundle = ArtifactBundle.load(bundle)
        bundle.validate(program_fingerprint=self._identity_fingerprint(),
                        arch_fingerprint=self.spec.fingerprint(),
                        force=force)

        # -- stage: resolve everything against this program ------------
        by_name = {segment.name: segment for segment in self.segments}
        if len(bundle.segments) != len(self.segments):
            raise BundleProgramError(
                f"bundle has {len(bundle.segments)} segment(s) but the "
                f"program compiled {len(self.segments)}; re-save the "
                f"bundle",
                segment=None)
        staged = []
        for payload in bundle.segments:
            segment = by_name.get(payload["name"])
            if segment is None:
                raise BundleProgramError(
                    f"bundle segment {payload['name']!r} does not exist in "
                    f"this program (segments: {sorted(by_name)}); re-save "
                    f"the bundle", segment=payload["name"])
            available = {plan.strategy: plan for plan in segment.plans}
            missing = [s for s in payload["strategies"]
                       if s not in available]
            if missing:
                raise BundleProgramError(
                    f"bundle names strategy(ies) {missing} that segment "
                    f"{segment.name!r} did not compile (available: "
                    f"{sorted(available)}); the variant generators "
                    f"changed — re-save the bundle",
                    segment=segment.name, plan=missing[0])
            survivors = set(payload["strategies"])
            dispatch = None
            for entry in payload.get("dispatch") or []:
                try:
                    dispatch = RegionDispatch(
                        axes=tuple(str(a) for a in entry["axes"]),
                        extras=decode_scalars(entry["extras"]),
                        from_host=bool(entry["from_host"]),
                        region=RegionTable.from_payload(entry["region"]))
                except (KeyError, TypeError, ValueError) as exc:
                    raise BundleFormatError(
                        f"segment {segment.name!r}: malformed dispatch "
                        f"payload: {exc}", segment=segment.name) from exc
                unknown = [w for w in dispatch.region.winners
                           if w not in survivors]
                if unknown:
                    raise BundleProgramError(
                        f"segment {segment.name!r}: dispatch table selects "
                        f"strategy {unknown[0]!r} which is not in the "
                        f"bundle's surviving set {sorted(survivors)}; "
                        f"re-save the bundle",
                        segment=segment.name, plan=unknown[0])
            permutations = []
            for entry in payload.get("permutations") or []:
                if entry["strategy"] not in survivors:
                    continue
                try:
                    permutations.append(
                        (entry["strategy"], int(entry["size"]),
                         decode_scalars(entry["scalars"]),
                         decode_ndarray(entry["perm"])))
                except (KeyError, TypeError, ValueError) as exc:
                    raise BundleFormatError(
                        f"segment {segment.name!r}: malformed permutation "
                        f"payload: {exc}", segment=segment.name) from exc
            staged.append((segment, payload, dispatch, permutations))
        try:
            calibration = CalibrationStore.from_dict(bundle.calibration)
        except CalibrationError as exc:
            raise BundleFormatError(
                f"bundle calibration payload rejected: {exc}") from exc

        # -- commit: nothing below can fail on bundle content ----------
        for segment, payload, dispatch, permutations in staged:
            keep = set(payload["strategies"])
            dropped = tuple(plan.strategy for plan in segment.plans
                            if plan.strategy not in keep)
            segment.plans = [plan for plan in segment.plans
                             if plan.strategy in keep]
            segment.pruned_strategies = (tuple(payload.get("pruned", ()))
                                         or segment.pruned_strategies
                                         + dropped)
            segment.dispatch = dispatch
            plans = {plan.strategy: plan for plan in segment.plans}
            for strategy, size, scalars, perm in permutations:
                plans[strategy].inject_permutation(size, scalars, perm)
        plan_of = {(segment.name, plan.strategy): plan
                   for segment in self.segments for plan in segment.plans}
        for entry in bundle.costs:
            plan = plan_of.get((entry["segment"], entry["strategy"]))
            if plan is not None:
                self.cost.seed(plan, decode_scalars(entry["scalars"]),
                               entry["seconds"])
        self.calibration = calibration
        self.wire_dtype = np.dtype(bundle.wire_dtype)
        return bundle

    def _apply_feedback(self, host_input: Optional[np.ndarray],
                        params: Dict[str, float],
                        plans: List[KernelPlan],
                        result: Optional[RunResult],
                        device: Optional[Device],
                        location: InputLocation,
                        config: FeedbackConfig) -> None:
        """Fold one run's measurements back into the calibration store.

        Per segment: observe the chosen variant's time (the configured
        ``observer``, or the run's measured per-segment wall-clock), fold
        the observed/predicted ratio into the family's EWMA factor, then
        decide whether to spend a probe on the calibrated runner-up —
        because that family has never been observed at this size bucket
        (exploration), or because the chosen variant's observed time
        exceeded the runner-up's calibrated prediction by the mispredict
        margin.  A probe measures the runner-up (observer call, or a
        re-execution of the chain with the runner substituted).  Probes
        are bounded per ``(segment, bucket)`` by ``config.probe_limit``.

        A baked table is repaired one way, :meth:`_rebake_dispatch`'s
        re-sweep of the subtree owning the binding: when a factor moves
        by more than :data:`REBAKE_THRESHOLD`, and when the calibrated
        costs rank the probed runner first while the table still names
        another winner.  A probe execution that fails observes nothing
        (see :meth:`_probe_execute`).
        """
        store = self.calibration
        stats = self.stats
        bucket = size_bucket(params)

        def measure(index: int, plan: KernelPlan) -> float:
            if config.observer is not None:
                return float(config.observer(plan, params))
            if result is not None and plan is plans[index]:
                return result.selections[index].measured_seconds
            return self._probe_execute(host_input, params, plans, index,
                                       plan, device, location)

        def fold(segment: Segment, plan: KernelPlan,
                 observed: float) -> None:
            raw = self.cost.plan_seconds(plan, params)
            predicted = raw * store.bias(plan.family)
            change = store.observe(plan.family, bucket, observed, predicted,
                                   alpha=config.alpha)
            stats.feedback_observations += 1
            if change > REBAKE_THRESHOLD and segment.dispatch is not None:
                self._rebake_dispatch(segment, params)

        from_host = location.on_host
        for index, (segment, plan) in enumerate(zip(self.segments, plans)):
            seg_from_host = from_host
            from_host = False
            observed = measure(index, plan)
            fold(segment, plan, observed)
            if len(segment.plans) < 2:
                continue
            eligible = self._eligible(segment, seg_from_host, params)
            cost = self._selection_cost()
            ranked = sorted(
                (p for p in eligible if p is not plan),
                key=lambda p: cost.plan_seconds(p, params))
            if not ranked:
                continue
            # A mispredict verdict needs both sides in measured units:
            # only meaningful once the runner-up's family has been
            # observed at this bucket.  An unobserved family is worth a
            # probe on its own, best-ranked first — a family the biased
            # model wrongly prices out of contention is found this way,
            # one family per visit, within the probe budget.
            runner = next(
                (p for p in ranked
                 if not store.has_observations(p.family, bucket)), None)
            explore = runner is not None
            if runner is None:
                runner = ranked[0]
            runner_cal = cost.plan_seconds(runner, params)
            mispredict = (not explore
                          and observed > config.margin * runner_cal)
            if mispredict:
                stats.mispredicts += 1
            if not (explore or mispredict):
                continue
            if store.probes_used(segment.name, bucket) \
                    >= config.probe_limit:
                continue
            store.note_probe(segment.name, bucket)
            stats.probe_runs += 1
            runner_observed = measure(index, runner)
            if runner_observed is None:
                continue        # the probe failed; the runner is quarantined
            fold(segment, runner, runner_observed)
            # Post-probe verdict: does the calibrated model now rank the
            # runner first?  If the baked table still names another
            # winner here (a factor-swing re-sweep may already have fixed
            # it), re-sweep the subtree owning the binding; argmin paths
            # pick up the new factors on the next select() automatically.
            cost = self._selection_cost()
            runner_wins = (cost.plan_seconds(runner, params)
                           < cost.plan_seconds(plan, params))
            dispatch = segment.dispatch
            if runner_wins and dispatch is not None and dispatch.lookup(
                    params, seg_from_host) not in (None, runner.strategy):
                self._rebake_dispatch(segment, params)

    def _probe_execute(self, host_input: np.ndarray,
                       params: Dict[str, float],
                       plans: List[KernelPlan], index: int,
                       runner: KernelPlan, device: Device,
                       location: InputLocation) -> Optional[float]:
        """Measure ``runner`` by re-running the chain with it substituted.

        The probe's stage and compile counters go into :attr:`stats`,
        but it is not a served run: probe executions are counted by
        ``probe_runs``, not ``runs``.  A probe that fails returns
        ``None``: its injected fault is counted, ``runner`` is
        quarantined at this size bucket when it is what failed, and the
        request the probe ran for — which already succeeded — is left
        alone.
        """
        probe_plans = list(plans)
        probe_plans[index] = runner
        try:
            result = self._execute_plans(host_input, params, probe_plans,
                                         device, location)
        except KernelExecutionError as exc:
            if exc.injected:
                self.stats.faults_injected += 1
            if exc.segment_index in (None, index) and \
                    self.calibration.quarantine(
                        runner.strategy, size_bucket(params),
                        reason=exc.kind or type(exc).__name__):
                self.stats.quarantines += 1
            return None
        return result.selections[index].measured_seconds

    def _sweep_cost(self, cost, plan: KernelPlan,
                    params: Dict[str, float]) -> float:
        """Cost query inside an axis sweep, with sizing errors typed.

        A :class:`CompileError` here means the plan cannot be sized at
        this sampled point (e.g. the point violates the program's
        steady-state schedule) — a legitimate "axis not sweepable"
        signal, translated to :class:`ModelSweepError` so the bakers can
        catch exactly that and nothing else.
        """
        try:
            return cost.plan_seconds(plan, params)
        except CompileError as exc:
            raise ModelSweepError(str(exc), plan=plan.strategy,
                                  params=dict(freeze_scalars(params))
                                  ) from exc

    def _baked_prev_placement(self, index: int,
                              point: Dict[str, float]) -> Optional[str]:
        """Placement of segment ``index - 1``'s baked winner at ``point``.

        Greedy chaining for placement-aware sweeps: segments bake in
        chain order, so the previous segment's table is already final
        when this one sweeps.  Falls back to the segment's dominant side
        when no table covers the point (sweep failure, out-of-box).
        """
        if index <= 0:
            return None
        prev = self.segments[index - 1]
        winner = None
        if prev.dispatch is not None:
            try:
                winner = prev.dispatch.region.lookup(point)
            except (KeyError, TypeError, ValueError):
                winner = None
        if winner is not None:
            for plan in prev.plans:
                if plan.strategy == winner:
                    return plan.placement
        placements = {p.placement for p in prev.plans}
        return "cpu" if placements == {"cpu"} else "gpu"

    def _swept_seconds(self, cost, index: int, plan: KernelPlan,
                       point: Dict[str, float]) -> float:
        """One candidate's cost at one swept point, placement-priced.

        With placement compiled as a selection axis every swept
        candidate carries its boundary terms (entry/exit hops, layout
        gather), so the baked break-even surfaces encode the CPU/GPU
        split point — an in-range lookup then routes small shapes to the
        CPU with zero model evaluations.  Legacy programs sweep the raw
        kernel cost exactly as before.
        """
        seconds = self._sweep_cost(cost, plan, point)
        if not self._placement:
            return seconds
        return seconds + self._placement_extra(
            index, plan, point, self._baked_prev_placement(index, point))

    def _sweep_variants(self, segment: Segment, from_host: bool,
                        names: Sequence[str], base: Dict[str, float]
                        ) -> List[Variant]:
        """One sweep candidate per eligible plan over the ``names`` axes.

        Each candidate prices its plan at ``base`` with the swept axis
        values bound in, placement-priced by :meth:`_swept_seconds`.
        """
        cost = self._selection_cost()
        index = self.segments.index(segment)
        return [
            Variant(plan.strategy,
                    lambda values, plan=plan: self._swept_seconds(
                        cost, index, plan,
                        {**base, **{name: int(v)
                                    for name, v in zip(names, values)}}))
            for plan in self._eligible(segment, from_host)]

    def _rebake_dispatch(self, segment: Segment,
                         params: Optional[Dict[str, float]] = None) -> bool:
        """Re-sweep one segment's baked table under calibrated costs.

        The one way a baked table changes after baking.  With a
        triggering binding (``params``) inside the baked box — a large
        factor swing, or a probe the table contradicts — only the
        subtree owning the binding's region is re-swept: the break-even
        surface moved locally, so regions far from the observation keep
        their cuts.  Without a binding (:meth:`load_calibration`, the
        converged pass of :meth:`recalibrate`) the whole table is
        rebuilt.
        """
        dispatch = segment.dispatch
        if dispatch is None:
            return False
        region = dispatch.region
        variants = self._sweep_variants(segment, dispatch.from_host,
                                        region.names, dict(dispatch.extras))
        point = None
        if params is not None:
            point = {name: params.get(name) for name in region.names}
            if any(value is None or not np.isscalar(value)
                   or not axis.contains(value)
                   for axis, value in zip(region.axes, point.values())):
                point = None      # out-of-box trigger: full rebake
        with self.cost.compile_scope():
            try:
                if point is not None:
                    region.resweep_subtree(point, variants, refine=True)
                    self.stats.subtree_resweeps += 1
                else:
                    dispatch.region = sweep_region(variants, region.axes,
                                                   refine=True)
            except ModelSweepError:
                # The calibrated sweep is infeasible; drop the stale
                # table so selection falls back to exact model-argmin.
                # Anything else (a buggy cost model, a typo) propagates.
                self.stats.sweep_failures += 1
                segment.dispatch = None
                return False
        self.stats.table_rebakes += 1
        return True

    def clear_warm_caches(self) -> None:
        """Cold-start the serving layer.

        Drops every plan's compiled-kernel artifacts and restructure
        permutations, empties the owned devices' buffer arenas, clears
        the memoized cost layer (model-argmin selections are runtime
        work the paper charges to the initial transfer, so a cold start
        re-evaluates them), and resets the calibration store — measured
        feedback is warm state.
        Baked dispatch tables survive — they are compile-time products,
        not run-time warm state.
        """
        for segment in self.segments:
            for plan in segment.plans:
                plan.clear_warm_cache()
        self.cost.clear()
        self.calibration.reset()
        with self._device_lock:
            for device in self._run_devices.values():
                device.arena.clear()

    # ------------------------------------------------------------------
    # Compile-time analyses / reporting
    # ------------------------------------------------------------------
    def sample_points(self, samples: int = 6,
                      extra_params: Optional[Dict[str, float]] = None
                      ) -> List[Dict[str, float]]:
        """Sample the declared input ranges on a geometric grid."""
        ranges = self.program.input_ranges
        if not ranges:
            return []
        axes = {name: geometric_points(lo, hi, samples)
                for name, (lo, hi) in ranges.items()}
        names = sorted(axes)
        points = []
        for combo in itertools.product(*(axes[n] for n in names)):
            point = dict(extra_params or {})
            point.update(dict(zip(names, combo)))
            points.append(point)
        return points

    def prune_variants(self, samples: int = 6,
                       extra_params: Optional[Dict[str, float]] = None,
                       tolerance: float = 0.05,
                       keep: Optional[Dict[str, List[str]]] = None) -> None:
        """Keep only variants that win somewhere in the declared ranges.

        ``keep`` maps segment names to strategies that must survive (so a
        later ``force=`` cannot dangle).  Afterwards each segment's
        dispatch table is re-baked over the surviving variants, turning
        in-range selection into a zero-evaluation table walk.
        """
        points = self.sample_points(samples, extra_params)
        if not points:
            return
        keep = keep or {}
        with self._declared_box(extra_params), self.cost.compile_scope():
            for segment in self.segments:
                segment.prune(self.cost, points, tolerance=tolerance,
                              keep=keep.get(segment.name, ()))
        self.bake_decision_tables(samples=samples,
                                  extra_params=extra_params)

    @contextlib.contextmanager
    def _declared_box(self, extra_params: Optional[Dict[str, float]]):
        """Report a sweep that read a scalar with no range and no pin.

        A cost model that needs such a scalar fails wherever it reads it
        (the IR interpreter or a params lookup); that failure becomes a
        :class:`CompileError` naming the declared parameter it read
        unbound, or every declared parameter the sweep box leaves
        unbound when the failure does not say which it read.
        """
        try:
            yield
        except (NameError, KeyError) as exc:
            bound = set(self.program.input_ranges) | set(extra_params or ())
            unranged = [name for name in self.program.params
                        if name not in bound]
            if not unranged:
                raise
            read = getattr(exc, "name", None)
            if read in unranged:
                unranged = [read]
            raise CompileError(
                f"cannot sweep the declared input ranges: parameter(s) "
                f"{unranged} have no range; declare input_ranges for them "
                f"or pin them with prune_variants(extra_params=...)"
            ) from exc

    def bake_decision_tables(self, samples: int = 8,
                             extra_params: Optional[Dict[str, float]] = None,
                             refine: bool = True) -> int:
        """Precompile per-segment dispatch tables (§3's subranges).

        Every declared input axis not pinned by ``extra_params`` becomes
        an axis of the sweep (``perfmodel.breakeven``): the box they span
        is partitioned into winner-homogeneous regions whose boundaries
        are refined to exact integer break-even points (``refine``), and
        the resulting :class:`~repro.perfmodel.RegionTable` is attached
        to each segment as a :class:`RegionDispatch`.  One unpinned axis
        gives the paper's list of subranges; two (rows x cols, width x
        height) give a k-d region map.  Selection on an in-box input
        matching the baked extras is then a tree walk with zero model
        evaluations; anything else falls back to model-argmin.

        Returns the number of tables baked (none when every axis is
        pinned).  All evaluations spent here are counted as compile-time
        and shared with later queries through the cost cache.
        """
        ranges = self.program.input_ranges
        base = dict(extra_params or {})
        names = [axis for axis in sorted(ranges) if axis not in base]
        if not names:
            return 0
        axes = tuple(
            AxisSpec(name=name, lo=int(ranges[name][0]),
                     hi=int(ranges[name][1]), samples=samples)
            for name in names)
        baked = 0
        with self._declared_box(base), self.cost.compile_scope():
            from_host = True
            for segment in self.segments:
                variants = self._sweep_variants(segment, from_host, names,
                                                base)
                try:
                    region = sweep_region(variants, axes, refine=refine)
                except ModelSweepError:
                    # A segment the model cannot sweep over this box
                    # (e.g. sizes that violate its schedule) simply keeps
                    # the exact model-argmin path.  Only the typed
                    # sweep-infeasibility error is treated this way — a
                    # typo-level bug in a cost model propagates instead
                    # of silently erasing a table.
                    self.stats.sweep_failures += 1
                    segment.dispatch = None
                    from_host = False
                    continue
                segment.dispatch = RegionDispatch(
                    axes=tuple(names), extras=freeze_scalars(base),
                    from_host=from_host, region=region)
                from_host = False
                baked += 1
        return baked

    def variant_count(self) -> int:
        return sum(len(segment.plans) for segment in self.segments)

    def code_size_ratio(self) -> float:
        """Variant count relative to one kernel per segment (§5.1's 1.4×)."""
        if not self.segments:
            return 1.0
        return self.variant_count() / len(self.segments)

    def cuda_source(self) -> str:
        chunks = [f"// Adaptic-generated CUDA for {self.program.name!r} "
                  f"on {self.spec.name} ({self.options.label()})\n"]
        for segment in self.segments:
            chunks.append(f"\n// ===== segment {segment.name} "
                          f"({segment.kind}) =====\n")
            for plan in segment.plans:
                chunks.append(plan.cuda_source())
        return "".join(chunks)

    def range_report(self, samples: int = 8,
                     extra_params: Optional[Dict[str, float]] = None,
                     axis: Optional[str] = None) -> str:
        """Operating input ranges per kernel variant (§3's subranges).

        Sweeps the declared input ranges (or the single ``axis`` parameter)
        and reports, per segment, the variant :meth:`select` picks on each
        subrange — with its placement hops, calibration and baked tables —
        as the textual form of the paper's per-kernel operating-range
        tables, plus the selection counters.
        """
        ranges = self.program.input_ranges
        if axis is not None:
            ranges = {axis: ranges[axis]}
        if not ranges:
            return "(program declares no input ranges)"
        if len(ranges) == 1:
            (name, (lo, hi)), = ranges.items()
            points = [{**(extra_params or {}), name: value}
                      for value in geometric_points(lo, hi, samples)]
        else:
            points = self.sample_points(samples, extra_params)
        with self.cost.compile_scope():
            picks = [[plan.strategy for plan in self.select(point)]
                     for point in points]
        lines = []
        for index, segment in enumerate(self.segments):
            lines.append(f"segment {segment.name}:")
            if len(ranges) != 1:
                # Multi-axis: list pointwise winners over the sampled grid.
                for point, pick in zip(points, picks):
                    scalars = {k: v for k, v in point.items()
                               if np.isscalar(v)}
                    lines.append(f"  {scalars} -> {pick[index]}")
                continue
            runs = []   # [first value, last value, strategy]
            for point, pick in zip(points, picks):
                if runs and runs[-1][2] == pick[index]:
                    runs[-1][1] = point[name]
                else:
                    runs.append([point[name], point[name], pick[index]])
            lines.extend(f"  {name} in [{first}, {last}] -> {strategy}"
                         for first, last, strategy in runs)
        lines.append(f"selection stats: {self.stats.summary()}")
        return "\n".join(lines)

    def describe(self, tables: bool = False) -> str:
        """Program summary; ``tables=True`` adds the full baked region
        maps (the ``python -m repro describe --tables`` view)."""
        lines = [f"CompiledProgram {self.program.name!r} "
                 f"[{self.options.label()}] on {self.spec.name}"]
        for segment in self.segments:
            lines.append(f"  {segment.name} ({segment.kind}; actors: "
                         f"{', '.join(segment.actors)})")
            for plan in segment.plans:
                lines.append(f"    - {plan.strategy}")
            d = segment.dispatch
            if d is not None:
                box = " x ".join(f"{ax.name} in [{ax.lo}, {ax.hi}]"
                                 for ax in d.region.axes)
                lines.append(
                    f"    [dispatch table over {box}: "
                    f"{d.region.n_leaves} regions, "
                    f"{len(d.region.boundaries())} boundaries]")
                if tables:
                    for line in d.region.describe():
                        lines.append(f"      {line}")
        lines.append(f"  selection stats: {self.stats.summary()}")
        return "\n".join(lines)
