"""Versioned artifact bundles: the compile-time products of a program.

The paper's input-aware compilation pays a one-off cost — variant pruning,
break-even sweeps, restructure permutation builds — that would otherwise
die with the process.  An :class:`ArtifactBundle` serializes those
products so a *fresh* process can serve its first request with zero
perf-model evaluations and zero permutation builds:

* per-segment dispatch tables (region tables) with their exact break-even
  points;
* the surviving (unpruned) variant set per segment;
* restructure permutations (bit-exact, base64);
* memoized cost-model entries;
* the measured-feedback :class:`~repro.perfmodel.calibration.CalibrationStore`
  (factors, probes, quarantines).

A bundle is data: nothing in it executes.  The expression functions of
the plans a loaded program runs are rendered from the program's own IR
on first use, a few microseconds each, as in any cold process.

Every bundle carries an invalidation key — (program IR fingerprint, arch
fingerprint, repro version, bundle schema version) — and loading validates
the whole key *before* touching any runtime state: a stale or cross-arch
bundle raises a :class:`~repro.errors.BundleError` subclass and nothing is
half-applied ("Comprehensive Optimization of Parametric Kernels" makes the
case that tuned choices must never leak across architectures).

This module deliberately imports only the stdlib, numpy and
:mod:`repro.errors` at module level; everything heavier (streamit, the
package version) is imported lazily so :mod:`repro.perfmodel.calibration`
can use :func:`atomic_write_json` without an import cycle.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .errors import (BundleArchError, BundleFormatError, BundleProgramError,
                     BundleVersionError)

#: Schema version written into every bundle; bump on layout changes.
#: Version 2 carries one dispatch payload shape (a region table) per
#: baked segment; version 1's separate one-axis ``"table"`` payloads are
#: not read, so a v1 bundle is rejected whole instead of half-loaded.
BUNDLE_SCHEMA_VERSION = 2
#: Schema versions this build can read.
SUPPORTED_BUNDLE_VERSIONS = (2,)


# ----------------------------------------------------------------------
# Atomic JSON writing (shared with the calibration store)
# ----------------------------------------------------------------------
def atomic_write_json(path: str, payload: Any, *, indent: int = 2) -> None:
    """Write ``payload`` as JSON to ``path`` atomically.

    The data lands in a temp file in the *same directory* (same
    filesystem, so the final rename cannot cross devices), is fsync'd,
    and only then replaces ``path`` via :func:`os.replace`.  A crash or
    full disk mid-write leaves the previous file untouched instead of a
    truncated one.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory,
                                    prefix=os.path.basename(path) + ".",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=indent)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# Value codecs
# ----------------------------------------------------------------------
def encode_ndarray(array: np.ndarray) -> Dict[str, Any]:
    """Bit-exact JSON form of an ndarray (dtype + shape + base64 bytes)."""
    array = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_ndarray(payload: Dict[str, Any]) -> np.ndarray:
    raw = base64.b64decode(payload["data"].encode("ascii"))
    array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return array.reshape(tuple(payload["shape"])).copy()


def _encode_scalar(value: Any) -> Any:
    """Coerce numpy scalars to plain JSON-safe Python scalars."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise TypeError(f"non-scalar value {value!r} in scalar binding")


def encode_scalars(scalars) -> List[List[Any]]:
    """``freeze_scalars`` tuple -> JSON pairs (order preserved)."""
    return [[str(name), _encode_scalar(value)] for name, value in scalars]


def decode_scalars(pairs) -> Tuple[Tuple[str, Any], ...]:
    return tuple((str(name), value) for name, value in pairs)


# ----------------------------------------------------------------------
# Program fingerprint
# ----------------------------------------------------------------------
def program_fingerprint(program, options_label: str = "",
                        threads: Optional[int] = None) -> str:
    """Stable identity of a stream program + compile options.

    Walks the stream hierarchy emitting everything selection decisions
    depend on: structure, filter names, rates, consts, state, and the
    full work-function IR rendering.  Auto-generated *container* names
    (``pipeline0``, ``splitjoin1`` …) come from a process-local counter
    and are deliberately excluded — two processes building the same
    program must agree on the fingerprint.
    """
    from .streamit.structure import (FeedbackLoop, Filter, Pipeline,
                                     SplitJoin)

    tokens: List[str] = []

    def walk(stream) -> None:
        if isinstance(stream, Filter):
            state = ",".join(f"{k}={v!r}"
                             for k, v in sorted(stream.state.items()))
            tokens.append(
                f"filter[{stream.name}|pop={stream.pop}|peek={stream.peek}"
                f"|push={stream.push}|consts={','.join(stream.consts)}"
                f"|state={state}]")
            tokens.append(str(stream.work))
        elif isinstance(stream, Pipeline):
            tokens.append(f"pipeline[{len(stream.children)}](")
            for child in stream.children:
                walk(child)
            tokens.append(")")
        elif isinstance(stream, SplitJoin):
            tokens.append(f"splitjoin[{stream.splitter}|{stream.joiner}](")
            for child in stream.children:
                walk(child)
            tokens.append(")")
        elif isinstance(stream, FeedbackLoop):
            tokens.append(f"feedbackloop[{stream.joiner}|{stream.splitter}"
                          f"|{stream.enqueued}](")
            walk(stream.body)
            walk(stream.loop)
            tokens.append(")")
        else:
            tokens.append(f"stream[{type(stream).__name__}]")

    walk(program.top)
    tokens.append(f"params={','.join(program.params)}")
    tokens.append("ranges=" + ",".join(
        f"{name}:{lo}:{hi}"
        for name, (lo, hi) in sorted(program.input_ranges.items())))
    if program.input_size is not None:
        tokens.append(f"input_size={program.input_size}")
    tokens.append(f"options={options_label}")
    if threads is not None:
        tokens.append(f"threads={threads}")
    digest = hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()
    return f"{program.name}:{digest[:16]}"


def _count_region_leaves(node) -> int:
    """Leaf count of a serialized region-table node (bundle inspect)."""
    if not node:
        return 0
    if "winner" in node:
        return 1
    return (_count_region_leaves(node.get("low"))
            + _count_region_leaves(node.get("high")))


def _repro_version() -> str:
    from . import __version__
    return __version__


# ----------------------------------------------------------------------
# The bundle
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ArtifactBundle:
    """Serialized warm state of one :class:`CompiledProgram`.

    ``segments`` is a list of per-segment dicts (name, kind, surviving
    strategies, pruned strategies, dispatch payload, permutations);
    ``costs`` are cost memo entries; ``calibration`` is the
    :meth:`CalibrationStore.to_dict` payload.  ``meta`` is free-form
    (e.g. the app registry name that built the program).  Every field
    is data; no code rides in a bundle.  Unknown payload keys are
    ignored on load, so a bundle that still carries the retired
    ``transfers`` memo or kernel ``sources`` loads unchanged, and
    nothing in those keys runs.
    """

    schema_version: int
    repro_version: str
    program_fingerprint: str
    arch_fingerprint: str
    program_name: str
    arch_name: str
    options_label: str
    wire_dtype: str
    segments: List[Dict[str, Any]]
    costs: List[Dict[str, Any]]
    calibration: Dict[str, Any]
    meta: Dict[str, Any] = dataclasses.field(default_factory=dict)

    # -- payload <-> object -------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: Any) -> "ArtifactBundle":
        if not isinstance(payload, dict):
            raise BundleFormatError(
                f"bundle payload is {type(payload).__name__}, expected a "
                f"JSON object")
        version = payload.get("schema_version")
        if version not in SUPPORTED_BUNDLE_VERSIONS:
            raise BundleVersionError(
                f"bundle schema version {version!r} is not supported; this "
                f"build reads versions {list(SUPPORTED_BUNDLE_VERSIONS)} — "
                f"re-save the bundle with this version of repro",
                found=version, supported=list(SUPPORTED_BUNDLE_VERSIONS))
        field_names = {f.name for f in dataclasses.fields(cls)}
        missing = [name for name in field_names
                   if name != "meta" and name not in payload]
        if missing:
            raise BundleFormatError(
                f"bundle payload is missing field(s) {sorted(missing)}; the "
                f"file is truncated or was not written by repro")
        kwargs = {name: payload[name] for name in field_names
                  if name in payload}
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise BundleFormatError(
                f"bundle payload is malformed: {exc}") from exc

    # -- disk ----------------------------------------------------------
    def save(self, path: str) -> None:
        atomic_write_json(path, self.to_payload())

    @classmethod
    def load(cls, path: str) -> "ArtifactBundle":
        try:
            with open(path, "r") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise BundleFormatError(
                f"cannot read bundle {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise BundleFormatError(
                f"bundle {path!r} is not valid JSON (truncated or "
                f"corrupt): {exc}") from exc
        return cls.from_payload(payload)

    # -- validation ----------------------------------------------------
    def validate(self, *, program_fingerprint: str, arch_fingerprint: str,
                 force: bool = False) -> None:
        """Check the full invalidation key against the current runtime.

        Raises the precise :class:`BundleError` subclass on the first
        mismatch; callers invoke this *before* applying any state, so a
        rejected bundle is never half-applied.  ``force=True`` skips the
        repro-version check (schema, arch and program identity are never
        skippable — applying those would be silently wrong, not merely
        risky).
        """
        version = _repro_version()
        if self.repro_version != version and not force:
            raise BundleVersionError(
                f"bundle was written by repro {self.repro_version!r} but "
                f"this build is {version!r}; re-save the bundle, or pass "
                f"force=True if the warm state is known-compatible",
                found=self.repro_version, supported=[version])
        if self.arch_fingerprint != arch_fingerprint:
            raise BundleArchError(
                f"bundle was produced for arch {self.arch_fingerprint!r} "
                f"({self.arch_name}) but this runtime targets "
                f"{arch_fingerprint!r}; tuned choices are "
                f"architecture-specific — re-save the bundle on this "
                f"target",
                found=self.arch_fingerprint, expected=arch_fingerprint)
        if self.program_fingerprint != program_fingerprint:
            raise BundleProgramError(
                f"bundle belongs to program {self.program_fingerprint!r} "
                f"({self.program_name}, options {self.options_label!r}) but "
                f"the current program/options fingerprint is "
                f"{program_fingerprint!r}; the program IR or compile "
                f"options changed — re-save the bundle",
                found=self.program_fingerprint, expected=program_fingerprint)

    # -- humans --------------------------------------------------------
    def inspect(self) -> str:
        """Multi-line human-readable summary (CLI ``bundle inspect``)."""
        lines = [
            f"program   {self.program_name}  ({self.program_fingerprint})",
            f"arch      {self.arch_name}  ({self.arch_fingerprint})",
            f"options   {self.options_label}",
            f"versions  schema={self.schema_version} "
            f"repro={self.repro_version}",
            f"payload   {len(self.segments)} segment(s), "
            f"{len(self.costs)} cost memo entr{'y' if len(self.costs) == 1 else 'ies'}",
        ]
        for seg in self.segments:
            dispatches = seg.get("dispatch") or []
            perms = seg.get("permutations") or []
            lines.append(
                f"  segment {seg['name']} [{seg['kind']}]: "
                f"{len(seg['strategies'])} variant(s) "
                f"({', '.join(seg['strategies'])}), "
                f"{len(dispatches)} dispatch table(s), "
                f"{len(perms)} permutation(s)")
            for dispatch in dispatches:
                region = dispatch.get("region") or {}
                axes = region.get("axes") or []
                box = " x ".join(f"{name}[{lo}, {hi}]"
                                 for name, lo, hi, _ in axes)
                lines.append(
                    f"    region {box}: "
                    f"{_count_region_leaves(region.get('root'))} "
                    f"region(s)")
        quarantined = self.calibration.get("quarantines") or []
        if quarantined:
            lines.append(f"  quarantines: {len(quarantined)}")
        if self.meta:
            lines.append("meta      " + json.dumps(self.meta, sort_keys=True))
        return "\n".join(lines)
