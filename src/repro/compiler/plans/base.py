"""Kernel-plan infrastructure.

A :class:`KernelPlan` is one concrete GPU implementation strategy for a
program segment: it knows how to *execute* functionally (launch simulator
kernels on a device), how to *predict* its time (produce
:class:`~repro.perfmodel.KernelWorkload` descriptions for the analytic
model), and how to *emit* CUDA C text.  Adaptic's input-aware optimizations
work by generating several plans per segment and letting the performance
model pick per input subrange.
"""

from __future__ import annotations

import abc
import collections
import dataclasses
import re
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ...gpu import Device, DeviceArray, GPUSpec
from ...ir import nodes as N
from ...perfmodel import KernelWorkload, PerformanceModel

#: Canonical buffer names inside a segment.
IN = "in"
OUT = "out"

#: Input layouts a plan may require (memory restructuring, §4.1.1).
LAYOUT_INTERLEAVED = "interleaved"    # stream order, AoS
LAYOUT_RESTRUCTURED = "restructured"  # component-major, SoA


@dataclasses.dataclass
class RestructureCounter:
    """Process-wide tally of host-side restructuring work.

    ``perm_builds`` counts permutation index arrays actually constructed
    (the O(n) part a warm run must never repeat).
    """

    perm_builds: int = 0

    def snapshot(self) -> "RestructureCounter":
        return dataclasses.replace(self)

    def since(self, earlier: "RestructureCounter") -> "RestructureCounter":
        return RestructureCounter(self.perm_builds - earlier.perm_builds)


RESTRUCTURE_COUNTER = RestructureCounter()

_MISS = object()

#: Most warm-cache entries one plan keeps for bindings that carry arrays.
#: Such an entry is keyed by the arrays' ids and pins them, so bindings
#: whose arrays change every call (a served request's own vector, a
#: solver's iterate) would otherwise grow the cache, and hold every
#: array they passed, without bound.  The oldest entries go first.  In
#: a 30-s perfbench run, no plan holds more than 40 (tmv-sweep, one per
#: shape) or 18 (serve-tmv), so none evicts.
WARM_ARRAY_ENTRIES = 64


@dataclasses.dataclass
class PlannedLaunch:
    """One kernel launch in a plan, with its modeled workload."""

    name: str
    grid: int
    block: int
    workload: KernelWorkload


class KernelPlan(abc.ABC):
    """One implementation strategy for a segment, on one GPU target."""

    #: Human-readable strategy tag shown in reports (e.g. "reduce.two_kernel").
    strategy: str = "generic"

    #: Device this plan executes on: ``"gpu"`` plans consume device
    #: buffers, ``"cpu"`` plans compute on host arrays via
    #: :meth:`execute_host`.  Heterogeneous placement treats this as a
    #: selection axis — the runtime materializes the implied h2d/d2h
    #: hops at placement boundaries, and the cost layer charges them.
    placement: str = "gpu"

    def __init__(self, spec: GPUSpec, name: str):
        self.spec = spec
        self.name = name
        #: Optimizations this plan embodies (for Figure 11-style breakdowns).
        self.optimizations: List[str] = []
        #: Input layout the plan requires.
        self.input_layout: str = LAYOUT_INTERLEAVED
        #: Warm-path cache: compiled artifacts (element fns, reducers,
        #: offsets, restructure permutations) keyed per parameter binding.
        self._warm_cache: Dict[tuple, Any] = {}
        #: The arrays each array-keyed :attr:`_warm_cache` entry pins, by
        #: entry key, oldest first: pinned, the id()-based keys can never
        #: be recycled; evicted, the entry releases them.
        self._entry_pins: Dict[tuple, tuple] = collections.OrderedDict()

    # -- identity ---------------------------------------------------------
    @property
    def family(self) -> str:
        """Variant family: the strategy tag with parametrization stripped.

        ``reduce.two_kernel[@64]`` and ``reduce.two_kernel[@128]`` are one
        family (``reduce.two_kernel``): all parametrizations of one code
        shape share the analytic model's systematic error, so measured
        calibration factors are learned and applied per family.  Layout
        suffixes (``+rows`` / ``+transposed``) stay distinct — they change
        the memory behavior the model must predict.
        """
        return re.split(r"[\[@]", self.strategy, maxsplit=1)[0]

    # -- modeling ---------------------------------------------------------
    @abc.abstractmethod
    def launches(self, params: Dict[str, float]) -> List[PlannedLaunch]:
        """The launch sequence for one execution, with workloads."""

    def predicted_seconds(self, model: PerformanceModel,
                          params: Dict[str, float]) -> float:
        """Model-predicted execution time including launch overheads."""
        total = 0.0
        for launch in self.launches(params):
            est = model.estimate(launch.workload)
            total += est.seconds + self.spec.kernel_launch_overhead_us * 1e-6
        return total

    # -- execution ----------------------------------------------------------
    @abc.abstractmethod
    def execute(self, device: Device, buffers: Dict[str, DeviceArray],
                params: Dict[str, float]) -> DeviceArray:
        """Run functionally; returns the segment output buffer."""

    def execute_host(self, data: np.ndarray,
                     params: Dict[str, float]) -> np.ndarray:
        """Run on the host: consume a host array, return a host array.

        Only meaningful for ``placement == "cpu"`` plans; the runtime
        calls this instead of :meth:`execute` when the segment is placed
        on the CPU, so no device buffer round-trip happens at all.
        """
        raise NotImplementedError(
            f"{type(self).__name__} ({self.strategy}) is a GPU plan; "
            f"it has no host execution path")

    @abc.abstractmethod
    def output_size(self, params: Dict[str, float]) -> int:
        """Number of elements the segment produces."""

    # -- warm-path artifact cache ----------------------------------------
    def warm_key(self, params) -> tuple:
        """Hashable identity of a parameter binding for artifact reuse.

        Scalars by value, array-valued entries by ``id()`` — compiled
        element functions embed auxiliary arrays into their namespaces, so
        two bindings with equal scalars but different arrays must not share
        artifacts.  The arrays are pinned (:meth:`cached_artifact`) so ids
        stay unambiguous for as long as the entry is cached.
        """
        return (freeze_scalars(params), freeze_arrays(params))

    def cached_artifact(self, tag: str, params, builder: Callable[[], Any]):
        """Build-once accessor for per-binding compiled artifacts.

        The first call at a given ``(tag, warm_key)`` runs ``builder`` and
        memoizes its result; later calls return it without recompiling.
        An entry whose binding carries arrays pins them, and past
        :data:`WARM_ARRAY_ENTRIES` such entries the oldest is evicted.
        """
        key = (tag,) + self.warm_key(params)
        cached = self._warm_cache.get(key, _MISS)
        if cached is not _MISS:
            return cached
        artifact = builder()
        self._warm_cache[key] = artifact
        pins = tuple(value for value in params.values()
                     if value is not None and not np.isscalar(value))
        if pins:
            # Past the window the oldest entry is evicted with its pins,
            # so no cached entry outlives the arrays it embeds.
            self._entry_pins[key] = pins
            if len(self._entry_pins) > WARM_ARRAY_ENTRIES:
                oldest, _ = self._entry_pins.popitem(last=False)
                self._warm_cache.pop(oldest, None)
        return artifact

    def clear_warm_cache(self) -> None:
        """Drop every memoized artifact (cold-start this plan)."""
        self._warm_cache.clear()
        self._entry_pins.clear()

    # -- host-side staging -----------------------------------------------
    def restructure_permutation(self, size: int,
                                params) -> Optional[np.ndarray]:
        """Gather indices staging an input into the plan's layout.

        ``None`` means the canonical layout is already correct (no staging
        work at all).  Subclasses with a non-trivial layout return the
        index array ``perm`` such that ``staged = data[perm]`` — built once
        per ``(size, scalar params)`` and memoized by
        :meth:`restructure_input`.
        """
        return None

    def restructure_input(self, data: np.ndarray, params) -> np.ndarray:
        """Host-side staging into the plan's required layout.

        Layout changes are expressed as memoized permutation index arrays
        (:meth:`restructure_permutation`) applied with one fancy-index
        gather, so a warm run never re-derives the layout arithmetic.
        """
        data = np.asarray(data).reshape(-1)
        key = ("perm", data.size, freeze_scalars(params))
        perm = self._warm_cache.get(key, _MISS)
        if perm is _MISS:
            perm = self.restructure_permutation(data.size, params)
            if perm is not None:
                perm = np.ascontiguousarray(perm, dtype=np.intp)
                RESTRUCTURE_COUNTER.perm_builds += 1
            self._warm_cache[key] = perm
        if perm is None:
            return data
        return data[perm]

    # -- code emission ----------------------------------------------------
    def cuda_source(self) -> str:
        """Generated CUDA C text for this plan's kernels."""
        return f"/* {self.name}: no CUDA emitter for this plan */\n"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.strategy})"


class FrozenParams(dict):
    """An immutable parameter binding that carries its frozen keys.

    A run copies its params into one, so every cache lookup in the run
    reads the keys :func:`freeze_scalars` and :func:`freeze_arrays`
    sorted once, instead of sorting the binding again.  Any mutation
    raises ``TypeError``.
    """

    __slots__ = ("scalars", "arrays")

    def __init__(self, params=()):
        super().__init__(params)
        self.scalars = _scalar_key(self)
        self.arrays = _array_key(self)

    def _immutable(self, *args, **kwargs):
        raise TypeError("a frozen parameter binding is immutable")

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable

    def __reduce__(self):
        return FrozenParams, (dict(self),)


def freeze_scalars(params) -> tuple:
    """Hashable projection of a parameter binding onto its scalars.

    The canonical cache key for anything that depends on a parameter
    binding only through the analytic model (costs, schedules, reducers).
    """
    if isinstance(params, FrozenParams):
        return params.scalars
    return _scalar_key(params)


def freeze_arrays(params) -> tuple:
    """Hashable identity projection of the non-scalar parameter entries.

    Complements :func:`freeze_scalars` for caches whose artifacts embed
    auxiliary arrays (compiled element functions close over them): arrays
    are keyed by ``id()``, so the cache owner must pin the array objects to
    keep ids unambiguous.  ``None`` placeholders participate by identity
    too, which is stable and cheap.
    """
    if isinstance(params, FrozenParams):
        return params.arrays
    return _array_key(params)


def _scalar_key(params) -> tuple:
    return tuple(sorted((k, v) for k, v in (params or {}).items()
                        if np.isscalar(v)))


def _array_key(params) -> tuple:
    return tuple(sorted((k, id(v)) for k, v in (params or {}).items()
                        if not np.isscalar(v)))


def expr_ops(expr) -> int:
    """Dynamic instruction estimate for one evaluation of an IR expression."""
    return sum(1 for n in expr.walk()
               if isinstance(n, (N.BinOp, N.UnaryOp, N.Call, N.Index)))


def expr_aux_loads(expr) -> int:
    """Global loads from auxiliary arrays per evaluation."""
    return sum(1 for n in expr.walk() if isinstance(n, N.Index))
