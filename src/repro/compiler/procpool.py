"""Process-pool backend for :meth:`CompiledProgram.run_batch`.

``run_batch(..., options=RunOptions(backend="process"))`` fans a batch
out over a :class:`~concurrent.futures.ProcessPoolExecutor` instead of
threads, escaping the GIL for CPU-bound kernel work:

* **instant worker warm-up** — the parent exports its warm state to an
  :class:`~repro.artifacts.ArtifactBundle` (the zero-cold-start
  mechanism) and each worker process compiles the program structurally,
  then loads the bundle; the worker's first run hydrates kernels from
  bundle-carried source and performs zero expression compiles;
* **shared-memory transport** — inputs and outputs cross the process
  boundary through :mod:`multiprocessing.shared_memory` segments sized
  by the program's :attr:`~CompiledProgram.wire_dtype`, one offset per
  batch item, so no pickled megabyte arrays ride the task queue;
* **parent-side accounting** — workers return plain-dict payloads
  (per-run :class:`SelectionStats` deltas, per-segment
  :class:`SegmentExecution` rows, error descriptors); the parent merges
  the deltas after the join and applies per-binding feedback itself, so
  the unsynchronized calibration store is only ever touched from one
  process.

Pools are cached per program and worker count (serving dispatches reuse
warm workers); :meth:`CompiledProgram.clear_warm_caches` and an
``atexit`` hook tear pools down and sweep stray ``/dev/shm`` segments so
nothing leaks even on abandoned batches.
"""

from __future__ import annotations

import atexit
import dataclasses
import multiprocessing
import os
import tempfile
import weakref
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional

import numpy as np

from ..errors import (KernelExecutionError, KernelTimeoutError,
                      SelectionError, TransferError)
from .runtime import BatchOutcome, RunOptions, RunResult, SegmentExecution
from .stats import SelectionStats

#: Parent-created shared-memory segments still live: name -> SharedMemory.
#: Swept by :func:`cleanup_shared_memory` (finally/clear_warm_caches/atexit)
#: so a crashed batch never leaks ``/dev/shm`` entries.
_LIVE_SHM: Dict[str, shared_memory.SharedMemory] = {}

#: Programs with cached worker pools, for the atexit sweep.
_LIVE_PROGRAMS = weakref.WeakSet()

#: Worker-process state installed by :func:`_worker_init`.
_STATE: Optional[dict] = None


# ---------------------------------------------------------------------------
# Cleanup
# ---------------------------------------------------------------------------

def cleanup_shared_memory() -> None:
    """Unlink every shared-memory segment this process still owns."""
    for name, shm in list(_LIVE_SHM.items()):
        _LIVE_SHM.pop(name, None)
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass


def shutdown_worker_pools(compiled) -> None:
    """Tear down a program's cached process pools and their bundle files."""
    pools = getattr(compiled, "_process_pools", None) or {}
    for workers in list(pools):
        pool, bundle_path = pools.pop(workers)
        try:
            pool.shutdown(wait=True)
        except Exception:
            pass
        try:
            os.unlink(bundle_path)
        except OSError:
            pass
    _LIVE_PROGRAMS.discard(compiled)


@atexit.register
def _atexit_cleanup() -> None:
    for compiled in list(_LIVE_PROGRAMS):
        try:
            shutdown_worker_pools(compiled)
        except Exception:
            pass
    cleanup_shared_memory()


# ---------------------------------------------------------------------------
# Error transport (custom exception classes don't pickle reliably)
# ---------------------------------------------------------------------------

_ERROR_CONTEXT = ("segment", "plan", "params", "kind", "segment_index",
                  "injected", "batch_index")

#: Builtin exception types reconstructed exactly (message-only) so the
#: process backend's per-index failures compare like the threaded ones.
_BUILTIN_ERRORS = {
    "ValueError": ValueError, "TypeError": TypeError,
    "KeyError": KeyError, "RuntimeError": RuntimeError,
    "ZeroDivisionError": ZeroDivisionError, "OverflowError": OverflowError,
}

_REPRO_ERRORS = {
    "KernelExecutionError": KernelExecutionError,
    "KernelTimeoutError": KernelTimeoutError,
    "SelectionError": SelectionError,
    "TransferError": TransferError,
}


def _encode_error(exc: BaseException) -> dict:
    descriptor = {"type": type(exc).__name__, "message": str(exc)}
    for attr in _ERROR_CONTEXT:
        value = getattr(exc, attr, None)
        if value is not None:
            descriptor[attr] = value
    return descriptor


def _decode_error(descriptor: dict) -> BaseException:
    name = descriptor.get("type", "RuntimeError")
    message = descriptor.get("message", "")
    if name in ("KernelExecutionError", "KernelTimeoutError"):
        cls = _REPRO_ERRORS[name]
        exc = cls(message,
                  injected=bool(descriptor.get("injected", False)),
                  segment_index=descriptor.get("segment_index"),
                  segment=descriptor.get("segment"),
                  plan=descriptor.get("plan"),
                  params=descriptor.get("params"),
                  kind=descriptor.get("kind"),
                  batch_index=descriptor.get("batch_index"))
        return exc
    if name in _REPRO_ERRORS:
        return _REPRO_ERRORS[name](message)
    if name in _BUILTIN_ERRORS:
        return _BUILTIN_ERRORS[name](message)
    return RuntimeError(f"{name}: {message}")


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _worker_init(program, spec, options, bundle_path: str) -> None:
    """Build this worker's program and warm it from the artifact bundle.

    Structural compilation only, then the bundle load seeds dispatch
    tables, cost memo entries, permutations, calibration and every
    recorded kernel source — the warm path's zero-cold-start contract,
    now applied per worker process.  A stale or missing bundle degrades
    to a cold worker instead of failing the pool.
    """
    global _STATE
    from .adaptic import AdapticCompiler
    compiled = AdapticCompiler(spec, options).compile(program)
    try:
        compiled.load_bundle(bundle_path)
    except Exception:
        pass
    _STATE = {"compiled": compiled}


def _attach(name: str) -> shared_memory.SharedMemory:
    # bpo-39959: attaching registers the segment with the resource
    # tracker as if this (forked) worker owned it; with the tracker
    # shared across the fork, worker-side unregisters then race the
    # parent's own unlink bookkeeping.  Suppress the attach-side
    # registration entirely — the parent's finally/atexit sweep is the
    # single owner of every unlink.  Workers are single-threaded, so
    # the swap cannot be observed concurrently.
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _worker_run(task: dict) -> dict:
    """Run one batch item against this worker's program.

    Returns a plain-dict payload either way: results carry per-segment
    selection rows, stage seconds and this run's stats delta; failures
    carry an error descriptor plus the partial delta, mirroring the
    threaded backend's per-index capture.
    """
    compiled = _STATE["compiled"]
    dtype = np.dtype(task["dtype"])
    shm_in = _attach(task["shm_in"])
    shm_out = _attach(task["shm_out"])
    before = dataclasses.replace(compiled.stats)
    try:
        window = np.ndarray(task["in_count"], dtype=dtype,
                            buffer=shm_in.buf,
                            offset=task["in_offset"] * dtype.itemsize)
        host_input = np.array(window)
        result = compiled.run(host_input, task["params"],
                              force=task["force"], options=task["options"])
        out = np.ndarray(task["out_count"], dtype=dtype,
                         buffer=shm_out.buf,
                         offset=task["out_offset"] * dtype.itemsize)
        flat = np.asarray(result.output, dtype=dtype).reshape(-1)
        out[:flat.size] = flat
        delta = compiled.stats.since(before)
        return {
            "index": task["index"], "ok": True,
            "out_count": int(flat.size),
            "selections": [dataclasses.asdict(sel)
                           for sel in result.selections],
            "predicted": result.predicted_kernel_seconds,
            "transfer": result.transfer_seconds,
            "stage": dict(result.stage_seconds),
            "stats": dataclasses.asdict(delta),
        }
    except Exception as exc:
        delta = compiled.stats.since(before)
        return {"index": task["index"], "ok": False,
                "error": _encode_error(exc),
                "stats": dataclasses.asdict(delta)}
    finally:
        shm_in.close()
        shm_out.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

def _mp_context():
    # Fork keeps worker start-up cheap and is available everywhere this
    # repo's toolchain runs; fall back to the platform default elsewhere.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _get_pool(compiled, workers: int) -> ProcessPoolExecutor:
    """The program's cached worker pool, creating (and bundling) on miss.

    The bundle is exported *after* the caller's per-binding warmup, so
    it carries every kernel source and cost memo entry the batch needs;
    its temp file lives as long as the pool does (workers may initialize
    lazily) and is removed by :func:`shutdown_worker_pools`.
    """
    entry = compiled._process_pools.get(workers)
    if entry is not None:
        return entry[0]
    fd, bundle_path = tempfile.mkstemp(prefix="repro-procpool-",
                                       suffix=".json")
    os.close(fd)
    compiled.save_bundle(bundle_path)
    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=_mp_context(),
        initializer=_worker_init,
        initargs=(compiled.program, compiled.spec, compiled.options,
                  bundle_path))
    compiled._process_pools[workers] = (pool, bundle_path)
    _LIVE_PROGRAMS.add(compiled)
    return pool


def run_batch_process(compiled, inputs: List[np.ndarray],
                      params_list: List[dict], *, options: RunOptions,
                      force, warm: bool) -> BatchOutcome:
    """Process-pool implementation behind ``run_batch`` with
    ``RunOptions(backend="process")``.

    Parity contract with the threaded backend: the same per-binding
    prologue (one warmup+select per distinct scalar binding, in the
    parent — this is also what stocks the bundle the workers warm from)
    and epilogue (select attribution and feedback from each binding's
    first completed item), per-index failure capture, and stats deltas
    merged after the join.  Workers run with the caller's options, so
    a placement pin selects there exactly as it does here.
    """
    if compiled.faults is not None:
        raise ValueError(
            "backend='process' does not support fault injection; "
            "injector callbacks cannot cross the process boundary")
    selections, select_seconds = compiled._select_bindings(
        params_list, options, force, warm)
    worker_options = dataclasses.replace(options, feedback=False)

    count = len(inputs)
    results: List[Optional[RunResult]] = [None] * count
    errors: Dict[int, BaseException] = {}
    dtype = compiled.wire_dtype

    # Validate in the parent so malformed items fail with the identical
    # exception the threaded backend reports, without a round trip.
    staged: List[Optional[np.ndarray]] = [None] * count
    out_counts: List[int] = [0] * count
    for index in range(count):
        try:
            staged[index] = compiled._validate_input(inputs[index],
                                                     params_list[index])
            out_counts[index] = int(
                compiled.segments[-1].output_size(params_list[index]))
        except Exception as exc:
            errors[index] = exc
    live = [index for index in range(count) if index not in errors]
    if not live:
        return BatchOutcome(results=results, errors=errors)

    in_offsets: Dict[int, int] = {}
    out_offsets: Dict[int, int] = {}
    total_in = total_out = 0
    for index in live:
        in_offsets[index] = total_in
        out_offsets[index] = total_out
        total_in += int(staged[index].size)
        total_out += out_counts[index]

    shm_in = shared_memory.SharedMemory(
        create=True, size=max(1, total_in) * dtype.itemsize)
    shm_out = shared_memory.SharedMemory(
        create=True, size=max(1, total_out) * dtype.itemsize)
    _LIVE_SHM[shm_in.name] = shm_in
    _LIVE_SHM[shm_out.name] = shm_out
    try:
        in_view = np.ndarray(max(1, total_in), dtype=dtype,
                             buffer=shm_in.buf)
        for index in live:
            data = staged[index]
            in_view[in_offsets[index]:in_offsets[index] + data.size] = data

        tasks = [{
            "index": index,
            "params": params_list[index],
            "force": force,
            "options": worker_options,
            "dtype": dtype.str,
            "shm_in": shm_in.name, "in_offset": in_offsets[index],
            "in_count": int(staged[index].size),
            "shm_out": shm_out.name, "out_offset": out_offsets[index],
            "out_count": out_counts[index],
        } for index in live]

        pool = _get_pool(compiled, options.workers)
        futures = {pool.submit(_worker_run, task): task["index"]
                   for task in tasks}
        deltas: List[SelectionStats] = []
        out_view = np.ndarray(max(1, total_out), dtype=dtype,
                              buffer=shm_out.buf)
        for future, index in futures.items():
            try:
                payload = future.result()
            except Exception as exc:    # worker process died mid-task
                errors[index] = exc
                continue
            if payload.get("stats"):
                deltas.append(SelectionStats(**payload["stats"]))
            if not payload["ok"]:
                errors[index] = _decode_error(payload["error"])
                continue
            produced = payload["out_count"]
            start = out_offsets[index]
            output = np.array(out_view[start:start + produced])
            stage = dict(payload["stage"])
            stage["select"] = 0.0
            results[index] = RunResult(
                output=output,
                selections=[SegmentExecution(**sel)
                            for sel in payload["selections"]],
                predicted_kernel_seconds=payload["predicted"],
                transfer_seconds=payload["transfer"],
                stage_seconds=stage)
        for delta in deltas:
            compiled.stats.merge(delta)
    finally:
        for shm in (shm_in, shm_out):
            _LIVE_SHM.pop(shm.name, None)
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except Exception:
                pass

    compiled._finish_batch(inputs, params_list, results, selections,
                           select_seconds, options)
    return BatchOutcome(results=results, errors=errors)
