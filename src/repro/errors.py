"""Structured exception taxonomy for the Adaptic runtime.

Every failure the serving stack can produce descends from
:class:`ReproError` and carries machine-readable context — which segment
was executing, which kernel variant (plan) was involved, and the scalar
parameter binding — so a caller (or the retry-then-degrade policy in
:mod:`repro.compiler.runtime`) can react without parsing messages.

The taxonomy deliberately multiple-inherits from the builtin exception
the same site historically raised (``KeyError`` for lookups,
``RuntimeError`` for execution, ``ValueError`` for sweeps), so existing
``except`` clauses and tests keep working while new code can catch the
precise class:

* :class:`SelectionError` — runtime kernel management could not resolve
  a variant: unknown segment/strategy lookups, no runnable variant.
* :class:`KernelExecutionError` — a selected variant failed while
  executing (a launch error, a crash inside the kernel body, an injected
  fault, or poisoned output).  :class:`KernelTimeoutError` marks the
  simulated-timeout flavor.
* :class:`TransferError` — a host<->device copy failed.
* :class:`CalibrationError` — the measured-feedback store could not
  load, save, or fold an observation.
* :class:`ModelSweepError` — a break-even sweep over an input axis is
  infeasible (a variant cannot be sized at a sampled point, the range
  contains no usable integers, no variant is runnable).  The decision
  table bakers catch *only* this class: a typo-level bug in a cost model
  raises whatever it raises and propagates loudly instead of being
  silently recorded as "axis not sweepable".
* :class:`CompileError` — the program cannot be compiled for the GPU
  (re-exported by :mod:`repro.compiler` for compatibility).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: Context attributes every ReproError carries (``None`` when unknown).
_CONTEXT_FIELDS = ("segment", "plan", "params", "kind", "batch_index")


class ReproError(Exception):
    """Root of the taxonomy; carries structured failure context.

    ``segment`` is the segment name, ``plan`` the variant's strategy
    tag, ``params`` the scalar parameter binding, ``kind`` a short
    machine tag (``"raise"`` / ``"nan"`` / ``"timeout"`` / ``"crash"``),
    and ``batch_index`` the failing item's position in a ``run_many``
    batch.  Extra keyword context is kept in :attr:`context`.
    """

    def __init__(self, message: str = "", *,
                 segment: Optional[str] = None,
                 plan: Optional[str] = None,
                 params: Optional[Dict[str, Any]] = None,
                 kind: Optional[str] = None,
                 batch_index: Optional[int] = None,
                 **extra: Any):
        super().__init__(message)
        self.message = message
        self.segment = segment
        self.plan = plan
        self.params = params
        self.kind = kind
        self.batch_index = batch_index
        self.context: Dict[str, Any] = dict(extra)

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument; the taxonomy wants the
        # plain message (plus whatever context is known) everywhere.
        parts = [self.message or type(self).__name__]
        tags = [f"{name}={getattr(self, name)!r}"
                for name in _CONTEXT_FIELDS
                if getattr(self, name) is not None]
        if tags:
            parts.append("[" + " ".join(tags) + "]")
        return " ".join(parts)


class SelectionError(ReproError, KeyError, RuntimeError):
    """Runtime kernel management could not resolve a variant.

    Subclasses ``KeyError`` (historical ``strategy_of`` / ``plan_named``
    lookups) and ``RuntimeError`` (historical ``best_plan`` failures) so
    existing handlers keep matching.
    """


class KernelExecutionError(ReproError, RuntimeError):
    """A selected kernel variant failed while executing.

    ``injected`` is True when a configured
    :class:`~repro.faults.FaultInjector` produced the failure;
    ``segment_index`` locates the failing segment in the compiled chain
    so the retry-then-degrade policy can re-select just that segment.
    """

    def __init__(self, message: str = "", *, injected: bool = False,
                 segment_index: Optional[int] = None, **kwargs: Any):
        super().__init__(message, **kwargs)
        self.injected = injected
        self.segment_index = segment_index


class KernelTimeoutError(KernelExecutionError):
    """A kernel launch exceeded its (simulated) time budget."""


class TransferError(ReproError, RuntimeError):
    """A host<->device memcpy failed."""


class CalibrationError(ReproError, RuntimeError):
    """The measured-feedback calibration store failed to load or save."""


class BundleError(ReproError, RuntimeError):
    """An artifact bundle could not be saved, loaded, or applied.

    Base of the zero-cold-start persistence taxonomy
    (:mod:`repro.artifacts`).  Loading validates the bundle's whole
    invalidation key *before* touching any runtime state, so every
    subclass below means "nothing was applied":

    * :class:`BundleFormatError` — the file is truncated, not JSON, or
      structurally malformed.
    * :class:`BundleVersionError` — the bundle schema version or the
      repro version that wrote it does not match this build.
    * :class:`BundleArchError` — the bundle was produced for a different
      GPU architecture fingerprint.
    * :class:`BundleProgramError` — the bundle belongs to a different
      program (IR hash mismatch, unknown segments or strategies).
    """


class BundleFormatError(BundleError):
    """The bundle file is truncated, not JSON, or malformed."""


class BundleVersionError(BundleError):
    """The bundle schema or repro version does not match this build."""


class BundleArchError(BundleError):
    """The bundle was produced for a different GPU architecture."""


class BundleProgramError(BundleError):
    """The bundle belongs to a different program or compile options."""


class ServeError(ReproError, RuntimeError):
    """Base of the serving front door's failure taxonomy.

    ``tenant`` names the submitting tenant and ``reason`` a short
    machine tag (``"queue_full"`` / ``"tenant_quota"`` / ``"closed"``).
    """

    def __init__(self, message: str = "", *,
                 tenant: Optional[str] = None,
                 reason: Optional[str] = None, **kwargs: Any):
        super().__init__(message, **kwargs)
        self.tenant = tenant
        self.reason = reason


class AdmissionError(ServeError):
    """The front door rejected a request at admission time.

    Raised before the request enters the queue — the caller should shed
    load or retry later; nothing was dispatched on its behalf.
    """


class ModelSweepError(ReproError, ValueError):
    """A break-even sweep over an input axis is infeasible.

    The *only* exception :meth:`CompiledProgram.bake_decision_tables`
    and ``_rebake_dispatch`` treat as "this box is not sweepable for
    this segment"; anything else re-raises.
    """


class CompileError(ReproError, ValueError):
    """The program cannot be compiled for the GPU."""
