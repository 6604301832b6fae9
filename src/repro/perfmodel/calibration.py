"""Online calibration of the analytic model from measured feedback.

The Hong&Kim-style model (:mod:`repro.perfmodel.model`) predicts kernel
time from hardware counters it derives statically; the runtime kernel
manager trusts those predictions when it selects a variant.  On real
hardware — and across input drift — the model is systematically biased
per kernel *family*: a family's predictions are off by a roughly
constant multiplicative factor over a band of input sizes.  This module
closes the loop the multi-versioning literature ("A Few Fit Most";
SDFG performance portability) prescribes: it keeps, per
``(plan family, size bucket)``, an EWMA of the observed/predicted time
ratio, and the runtime multiplies raw model predictions by that factor
before every dispatch decision.

The store also keeps a per-family model-bias hook (the controlled
perturbation used by the calibration experiments and tests), the probe
budget that bounds mispredict-triggered re-selection, and the
quarantined variants.  Everything is JSON-serializable so a warmed
service can restart hot (:meth:`CalibrationStore.save` /
:meth:`CalibrationStore.load`).
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Callable, Dict, List, Optional, Tuple

from ..artifacts import atomic_write_json
from ..errors import CalibrationError

#: Schema version stamped into saved stores; bump on layout changes.
CALIBRATION_SCHEMA_VERSION = 1
#: Schema versions this build can read.
SUPPORTED_CALIBRATION_VERSIONS = (1,)
#: EWMA weight of the newest observed/predicted ratio.
EWMA_ALPHA = 0.5


def size_bucket(params) -> int:
    """Coarse log2 volume bucket of a scalar parameter binding.

    The product of the binding's integral scalars (``rows``, ``cols``,
    ``n``, ``r``, ...) is a proxy for total problem volume; its bit
    length buckets bindings whose volumes are within 2x of each other.
    Calibration factors and probe budgets are tracked per bucket so a
    factor learned at one shape transfers to every same-volume shape
    (a Figure-10 sweep at a fixed element count is one bucket) without
    leaking across decades of problem size.
    """
    volume = 1
    for _name, value in sorted((params or {}).items()):
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)) or (
                hasattr(value, "ndim") and getattr(value, "ndim", 1) == 0):
            v = float(value)
            if math.isfinite(v) and v >= 2 and v.is_integer():
                volume *= int(v)
    return max(volume, 1).bit_length() - 1


@dataclasses.dataclass
class FeedbackConfig:
    """Policy knobs for the feedback-directed selection layer.

    ``observer`` replaces wall-clock measurement with a deterministic
    ``(plan, params) -> seconds`` source — the hook the calibration
    experiments and tests use, and the integration point for external
    timers.  With ``observer`` unset, a ``RunOptions(feedback=True)`` run
    feeds the per-segment measured kernel seconds and probes by
    re-executing the runner-up variant.
    """

    #: Maximum probe runs per ``(segment, size bucket)``.
    probe_limit: int = 3
    #: Deterministic measurement source for recalibration drivers.
    observer: Optional[Callable[[object, dict], float]] = None


@dataclasses.dataclass
class _Factor:
    """EWMA state of one ``(family, bucket)`` calibration factor."""

    factor: float = 1.0
    observations: int = 0


class CalibrationStore:
    """Measured-feedback state shared by one compiled program.

    Three layers of state:

    * **factors** — per ``(family, bucket)`` EWMA of observed/predicted
      ratios; :meth:`scale` is what the runtime multiplies raw model
      predictions by.
    * **model bias** — per-family multiplicative perturbation of the
      analytic model itself.  The calibration experiments use it to
      inject a known model error and watch the factors cancel it; it is
      part of the prediction the EWMA denominators see, so a biased
      model calibrates exactly like a genuinely wrong one.
    * **probes** — per ``(segment, bucket)`` count of re-selection
      probes spent, bounding the cost of mispredict recovery.
    * **quarantines** — per ``(strategy, bucket)`` variants the runtime
      has benched after an execution failure; selection skips them until
      a cold start (:meth:`reset`) lifts the quarantine.
    """

    def __init__(self):
        self._factors: Dict[Tuple[str, int], _Factor] = {}
        self._bias: Dict[str, float] = {}
        self._probes: Dict[Tuple[str, int], int] = {}
        self._quarantined: Dict[Tuple[str, int], str] = {}
        #: :meth:`GPUSpec.fingerprint` of the architecture the factors
        #: were measured on (``None`` until stamped by the runtime).
        self.arch_fingerprint: Optional[str] = None

    def __len__(self) -> int:
        return len(self._factors)

    def is_identity(self) -> bool:
        """True when every prediction passes through unscaled.

        The runtime checks this before every selection: an identity
        store routes dispatch straight to the raw memoized cost layer,
        so a program that never sees feedback behaves (and counts)
        bit-identically to one without the calibration layer.
        """
        return not self._factors and not self._bias

    # -- factors ---------------------------------------------------------
    def ewma(self, family: str, bucket: int) -> float:
        """Learned calibration factor for one family at one bucket."""
        state = self._factors.get((family, bucket))
        return state.factor if state is not None else 1.0

    def bias(self, family: str) -> float:
        """Model-bias multiplier applied to raw predictions (default 1)."""
        return self._bias.get(family, 1.0)

    def scale(self, family: str, bucket: int) -> float:
        """Total multiplier on the raw model prediction for dispatch."""
        return self.bias(family) * self.ewma(family, bucket)

    def set_model_bias(self, family: str, factor: float) -> None:
        """Perturb the analytic model for one family (experiment hook)."""
        if factor == 1.0:
            self._bias.pop(family, None)
        else:
            self._bias[family] = float(factor)

    def has_observations(self, family: str, bucket: int) -> bool:
        state = self._factors.get((family, bucket))
        return state is not None and state.observations > 0

    def observe(self, family: str, bucket: int,
                observed_seconds: float, predicted_seconds: float) -> float:
        """Fold one measurement into the family's factor.

        ``predicted_seconds`` is the model's biased prediction *before*
        the EWMA factor (the factor must converge to the ratio between
        reality and the model, not chase its own corrections).  The
        first observation seeds the EWMA with the raw ratio; later ones
        blend with weight :data:`EWMA_ALPHA`.  Returns the relative change of
        the factor — the runtime re-sweeps dispatch tables when it
        exceeds :data:`~repro.compiler.runtime.REBAKE_THRESHOLD`.
        """
        if (not math.isfinite(observed_seconds) or observed_seconds <= 0.0
                or not math.isfinite(predicted_seconds)
                or predicted_seconds <= 0.0):
            return 0.0
        ratio = observed_seconds / predicted_seconds
        state = self._factors.get((family, bucket))
        if state is None or state.observations == 0:
            old, new, count = 1.0, ratio, 1
        else:
            old = state.factor
            new = (1.0 - EWMA_ALPHA) * old + EWMA_ALPHA * ratio
            count = state.observations + 1
        self._factors[(family, bucket)] = _Factor(new, count)
        return abs(new - old) / old if old else 0.0

    # -- probe budget ----------------------------------------------------
    def probes_used(self, segment: str, bucket: int) -> int:
        return self._probes.get((segment, bucket), 0)

    def note_probe(self, segment: str, bucket: int) -> None:
        key = (segment, bucket)
        self._probes[key] = self._probes.get(key, 0) + 1

    # -- quarantine ------------------------------------------------------
    def quarantine(self, strategy: str, bucket: int,
                   reason: str = "") -> bool:
        """Bench one variant at one size bucket after an execution failure.

        Returns ``True`` when the variant was newly quarantined (the
        runtime's ``quarantines`` counter increments only then).
        Quarantine is keyed by strategy tag — the same identity dispatch
        tables store — and scoped per size bucket, so a variant that only
        fails at large shapes keeps serving small ones.
        """
        key = (strategy, int(bucket))
        if key in self._quarantined:
            return False
        self._quarantined[key] = reason
        return True

    def is_quarantined(self, strategy: str, bucket: int) -> bool:
        return (strategy, int(bucket)) in self._quarantined

    def has_quarantines(self) -> bool:
        """Cheap guard so quarantine-free selection stays zero-overhead."""
        return bool(self._quarantined)

    def quarantined(self) -> List[Tuple[str, int, str]]:
        """Benched ``(strategy, bucket, reason)`` triples, sorted."""
        return [(strategy, bucket, reason)
                for (strategy, bucket), reason
                in sorted(self._quarantined.items())]

    # -- lifecycle -------------------------------------------------------
    def reset(self) -> None:
        """Cold-start: drop factors, bias, probes and quarantines."""
        self._factors.clear()
        self._bias.clear()
        self._probes.clear()
        self._quarantined.clear()
        self.arch_fingerprint = None

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": CALIBRATION_SCHEMA_VERSION,
            "arch_fingerprint": self.arch_fingerprint,
            "factors": [
                {"family": family, "bucket": bucket,
                 "factor": state.factor,
                 "observations": state.observations}
                for (family, bucket), state in sorted(self._factors.items())
            ],
            "bias": dict(sorted(self._bias.items())),
            "probes": [
                {"segment": segment, "bucket": bucket, "count": count}
                for (segment, bucket), count in sorted(self._probes.items())
            ],
            "quarantines": [
                {"strategy": strategy, "bucket": bucket, "reason": reason}
                for (strategy, bucket), reason
                in sorted(self._quarantined.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CalibrationStore":
        try:
            return cls._from_dict(payload)
        except CalibrationError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CalibrationError(
                f"malformed calibration payload: {exc}") from exc

    @classmethod
    def _from_dict(cls, payload: dict) -> "CalibrationStore":
        # Payloads predating the version field are schema 1.
        version = payload.get("version", 1)
        if version not in SUPPORTED_CALIBRATION_VERSIONS:
            raise CalibrationError(
                f"calibration payload has schema version {version!r}; this "
                f"build reads versions "
                f"{list(SUPPORTED_CALIBRATION_VERSIONS)} — re-save the "
                f"store with this version of repro",
                found=version,
                supported=list(SUPPORTED_CALIBRATION_VERSIONS))
        store = cls()
        fingerprint = payload.get("arch_fingerprint")
        store.arch_fingerprint = str(fingerprint) \
            if fingerprint is not None else None
        for entry in payload.get("factors", ()):
            store._factors[(entry["family"], int(entry["bucket"]))] = \
                _Factor(float(entry["factor"]), int(entry["observations"]))
        for family, factor in payload.get("bias", {}).items():
            store._bias[family] = float(factor)
        for entry in payload.get("probes", ()):
            store._probes[(entry["segment"], int(entry["bucket"]))] = \
                int(entry["count"])
        for entry in payload.get("quarantines", ()):
            store._quarantined[(entry["strategy"], int(entry["bucket"]))] = \
                str(entry.get("reason", ""))
        return store

    def save(self, path) -> None:
        """Write the store to ``path`` as JSON (restart-hot serving).

        The write is atomic (temp file + ``os.replace``), so a crash or
        full disk mid-write leaves the previous good file in place
        instead of a truncated one.
        """
        try:
            atomic_write_json(path, self.to_dict(), indent=1)
        except OSError as exc:
            raise CalibrationError(
                f"cannot save calibration to {path!r}: {exc}") from exc

    def load(self, path, expected_arch: Optional[str] = None,
             force: bool = False) -> None:
        """Replace this store's state with the JSON at ``path``.

        ``expected_arch`` is the current runtime's
        :meth:`GPUSpec.fingerprint`; a store stamped with a *different*
        fingerprint is rejected — factors measured on one architecture
        must not silently scale predictions on another.  ``force=True``
        applies it anyway (explicit cross-arch seeding).  Stores with no
        stamp (pre-fingerprint files) load unconditionally.
        """
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CalibrationError(
                f"cannot load calibration from {path!r}: {exc}") from exc
        restored = self.from_dict(payload)
        if (expected_arch is not None
                and restored.arch_fingerprint is not None
                and restored.arch_fingerprint != expected_arch
                and not force):
            raise CalibrationError(
                f"calibration at {path!r} was measured on arch "
                f"{restored.arch_fingerprint!r} but this runtime targets "
                f"{expected_arch!r}; pass force=True to apply it anyway",
                found=restored.arch_fingerprint, expected=expected_arch)
        self.arch_fingerprint = restored.arch_fingerprint
        self._factors = restored._factors
        self._bias = restored._bias
        self._probes = restored._probes
        self._quarantined = restored._quarantined

    def summary(self) -> str:
        if not self._factors and not self._quarantined:
            return "calibration: (no observations)"
        parts = [f"{family}@2^{bucket}={state.factor:.3g}x"
                 f"(n={state.observations})"
                 for (family, bucket), state
                 in sorted(self._factors.items())]
        parts += [f"quarantined:{strategy}@2^{bucket}"
                  for (strategy, bucket) in sorted(self._quarantined)]
        return "calibration: " + " ".join(parts)


def selection_accuracy(compiled, points, reference=None) -> float:
    """Fraction of ``points`` where selection matches a reference cost.

    ``reference`` is a ``(plan, params) -> seconds`` ground truth
    (default: the program's raw, un-biased memoized model) — the metric
    the calibration experiments report before and after feedback.
    Selection goes through ``compiled.select`` (tables, calibration and
    all); the truth side is a plain argmin of ``reference`` over the
    same eligible variants.
    """
    points = list(points)
    if not points:
        return 1.0
    if reference is None:
        reference = compiled.cost.plan_seconds

    class _Truth:
        plan_seconds = staticmethod(reference)

    correct = 0
    for params in points:
        params = dict(params)
        chosen = compiled.select(params)
        from_host = True
        ok = True
        for segment, picked in zip(compiled.segments, chosen):
            eligible = compiled._eligible(segment, from_host)
            truth = segment.best_plan(_Truth, params, plans=eligible)
            from_host = False
            if truth.strategy != picked.strategy:
                ok = False
                break
        correct += ok
    return correct / len(points)
