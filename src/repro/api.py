"""Stable public API for the Adaptic reproduction.

One documented entry surface.  Applications import this module and
nothing else::

    from repro import api

    compiled = api.compile(program, arch="c2050")
    result = compiled.run(data, {"n": 1 << 20},
                          options=api.RunOptions(
                              exec_mode=api.ExecMode.VECTORIZED))
    print(result.output, compiled.stats.summary())

:func:`compile` is the only function defined here; everything else is a
re-export of the types an application touches (:class:`CompiledProgram`,
:class:`RunResult`, :class:`RunOptions`, :class:`SelectionStats`,
:class:`ExecMode`, :class:`InputLocation`, the selection fast-path types
(:class:`AxisSpec` / :class:`RegionTable` / :class:`RegionDispatch`), the
feedback/calibration types, the serving front door (:class:`Server` /
:class:`ServeConfig`), and the GPU targets).  The facade adds no
behavior, so the internal modules can keep moving without breaking
callers.  :func:`compile` is the one compile entry point, and every
execution option travels in one :class:`RunOptions` value.
"""

from __future__ import annotations

from typing import Optional, Union

from .artifacts import ArtifactBundle
from .compiler import AdapticCompiler, AdapticOptions, CompileError
from .compiler.runtime import (BatchOutcome, CompiledProgram, InputLocation,
                               RunOptions, RunResult, SegmentExecution)
from .compiler.segments import RegionDispatch
from .compiler.stats import SelectionStats
from .errors import (AdmissionError, BundleArchError, BundleError,
                     BundleFormatError, BundleProgramError,
                     BundleVersionError, CalibrationError,
                     KernelExecutionError, KernelTimeoutError,
                     ModelSweepError, ReproError, SelectionError,
                     ServeError, TransferError)
from .faults import FaultInjector, FaultPlan
from .gpu import (Device, ExecMode, GPUSpec, GTX_285, GTX_480, TARGETS,
                  TESLA_C2050, get_target)
from .perfmodel import (AxisSpec, CalibrationStore, FeedbackConfig,
                        RegionTable, selection_accuracy, size_bucket)
from .serve import (Priority, ServeConfig, ServeResult, Server,
                    TenantConfig)
from .streamit import StreamProgram

__all__ = [
    "compile", "load_bundle",
    "AdapticOptions", "CompileError", "CompiledProgram", "RunResult",
    "BatchOutcome", "SegmentExecution", "SelectionStats", "ArtifactBundle",
    "ExecMode", "InputLocation", "RunOptions", "Device",
    "AxisSpec", "RegionTable", "RegionDispatch",
    "ReproError", "SelectionError", "KernelExecutionError",
    "KernelTimeoutError", "TransferError", "CalibrationError",
    "ModelSweepError", "ServeError", "AdmissionError",
    "Server", "ServeConfig", "ServeResult", "Priority", "TenantConfig",
    "BundleError", "BundleFormatError", "BundleVersionError",
    "BundleArchError", "BundleProgramError",
    "FaultInjector", "FaultPlan",
    "CalibrationStore", "FeedbackConfig", "selection_accuracy",
    "size_bucket",
    "GPUSpec", "TESLA_C2050", "GTX_285", "GTX_480", "TARGETS", "get_target",
]


def compile(program: StreamProgram,
            arch: Union[GPUSpec, str] = TESLA_C2050, *,
            options: Optional[AdapticOptions] = None) -> CompiledProgram:
    """Compile ``program`` for a GPU target.

    ``arch`` is a :class:`GPUSpec` or a target name from
    :data:`repro.gpu.TARGETS` (``"c2050"``, ``"gtx285"``, ...).  Returns
    a :class:`CompiledProgram`; run it with
    :meth:`~CompiledProgram.run` / :meth:`~CompiledProgram.run_many`,
    and feed measured time back into its variant selection with
    ``run(..., options=RunOptions(feedback=True))`` or
    :meth:`~CompiledProgram.recalibrate`.
    """
    spec = get_target(arch) if isinstance(arch, str) else arch
    return AdapticCompiler(spec, options).compile(program)


def load_bundle(path: str,
                program: Optional[StreamProgram] = None, *,
                arch: Union[GPUSpec, str, None] = None,
                options: Optional[AdapticOptions] = None,
                force: bool = False) -> CompiledProgram:
    """Reconstruct a :class:`CompiledProgram` from a saved bundle.

    Loads the :class:`ArtifactBundle` at ``path``, compiles the program
    it belongs to (structural work only), and applies the bundle's
    decisions — surviving variants, baked tables, calibration — so the
    first :meth:`~CompiledProgram.run` /
    :meth:`~CompiledProgram.run_many` runs no prune or bake, selects
    in-box inputs from the baked tables with zero model evaluations,
    and makes exactly the model evaluations, permutation builds and
    expression compiles the same requests make after
    :meth:`~CompiledProgram.clear_warm_caches`.  A bundle carries no
    code and no warm caches.

    ``program`` defaults to rebuilding the app named in the bundle's
    ``meta["app"]`` (the ``bundle save`` CLI records it); ``arch``
    defaults to the bundle's own target.  A stale bundle — schema or
    repro version, arch fingerprint, or program IR mismatch — raises
    the precise :class:`BundleError` subclass and nothing is applied.
    ``force=True`` only relaxes the repro-version check.
    """
    bundle = ArtifactBundle.load(path)
    if program is None:
        from . import apps
        app = bundle.meta.get("app")
        if app is None or app not in apps.BUILDERS:
            raise BundleProgramError(
                f"bundle {path!r} does not name a known app in "
                f"meta['app'] (got {app!r}); pass program= explicitly "
                f"(known apps: {sorted(apps.BUILDERS)})")
        program = apps.BUILDERS[app][0]()
    if arch is None:
        arch = bundle.arch_name
    spec = get_target(arch) if isinstance(arch, str) else arch
    compiled = AdapticCompiler(spec, options).compile(program)
    compiled.load_bundle(bundle, force=force)
    return compiled
