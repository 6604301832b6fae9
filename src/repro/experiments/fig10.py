"""Figure 10: TMV — Adaptic (five kernel variants) vs CUBLAS across shapes.

Three panels (1M, 4M, 16M elements); within each, a full sweep of
(rows × cols) factorizations.  Expected shape: CUBLAS peaks near square
matrices and collapses at both extremes; Adaptic sustains high GFLOPS
everywhere by switching kernels at the model's break-even points.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .. import api
from ..apps import tmv
from ..baselines import cublas
from ..gpu import DeviceArray, GPUSpec, TESLA_C2050
from .common import (FigureResult, Series, calibration_trial, model_for,
                     shape_label)
from ..compiler import RunOptions

PANELS = {"1M": 1 << 20, "4M": 4 << 20, "16M": 16 << 20}


def run_panel(total_elements: int,
              spec: GPUSpec = TESLA_C2050) -> FigureResult:
    model = model_for(spec)
    baseline = cublas.sgemv_t(spec)
    compiled = api.compile(tmv.build(), arch=spec)
    labels: List[str] = []
    cublas_gflops: List[float] = []
    adaptic_gflops: List[float] = []
    kernels: List[str] = []
    for rows, cols in tmv.shape_sweep(total_elements):
        params = {"rows": rows, "cols": cols}
        t_base = baseline.predicted_seconds(model,
                                            {**params, "vec": None})
        # One selection per shape: the chosen plans' costs come straight
        # from the memoized cost layer, so the strategy report below costs
        # no further model evaluations.
        plans = compiled.select(params)
        t_adaptic = sum(compiled.plan_seconds(plan, params)
                        for plan in plans)
        labels.append(shape_label(rows, cols))
        flops = 2.0 * total_elements
        cublas_gflops.append(flops / t_base / 1e9)
        adaptic_gflops.append(flops / t_adaptic / 1e9)
        kernels.append(plans[0].strategy)
    distinct = []
    for k in kernels:
        if k not in distinct:
            distinct.append(k)
    return FigureResult(
        figure="Figure 10",
        title=f"TMV, {total_elements >> 20}M elements on {spec.name}",
        series=[Series("CUBLAS", labels, cublas_gflops),
                Series("Adaptic", labels, adaptic_gflops)],
        unit="GFLOPS",
        notes=f"Adaptic kernels used across the sweep: {distinct}\n"
              f"selection: {compiled.stats.summary()}")


def functional_check(rows: int = 48, cols: int = 160,
                     spec: GPUSpec = TESLA_C2050, seed: int = 0):
    """Execute one TMV shape in both executor modes.

    Pushes a real matrix through the compiled program under the
    reference coroutine interpreter and under the vectorized block
    executor and demands bit-identical output buffers, so the kernels
    the sweep ranks are known to agree however they are executed.  Each
    mode then runs a second, warm time (cached kernels and permutation,
    recycled buffers) and must reproduce the cold output bit for bit.
    Returns the (shared) output array.
    """
    rng = np.random.default_rng(seed)
    matrix, _vec, params = tmv.make_input(rows, cols, rng)
    compiled = api.compile(tmv.build(), arch=spec)
    outputs = {}
    for mode in (api.ExecMode.REFERENCE, api.ExecMode.VECTORIZED):
        DeviceArray.reset_base_allocator()
        outputs[mode] = np.asarray(
            compiled.run(matrix, params, options=RunOptions(exec_mode=mode)).output)
        warm = np.asarray(
            compiled.run(matrix, params, options=RunOptions(exec_mode=mode)).output)
        if warm.tobytes() != outputs[mode].tobytes():
            raise AssertionError(
                f"tmv {rows}x{cols}: warm {mode} run diverged")
    ref = outputs[api.ExecMode.REFERENCE]
    vec = outputs[api.ExecMode.VECTORIZED]
    if ref.tobytes() != vec.tobytes():
        raise AssertionError(f"tmv {rows}x{cols}: executor modes disagree")
    return ref


def calibration_report(total_elements: int = 1 << 20,
                       spec: GPUSpec = TESLA_C2050,
                       bias: float = 3.0,
                       family: str = None) -> Dict[str, object]:
    """Selection accuracy over one shape sweep before/after recalibration.

    The figure's sweep holds total elements fixed, so every
    (rows × cols) point lands in one size bucket — the setting where a
    single learned factor must transfer across shapes.  A
    :func:`~.common.calibration_trial` over the sweep biases, by
    default, the family the un-biased model picks mid-sweep, where the
    break-even structure is densest.  TMV declares ranges on both axes,
    so there is no baked table here: recovery is purely the EWMA factors
    steering the calibrated argmin.
    """
    compiled = api.compile(tmv.build(), arch=spec)
    points = [{"rows": rows, "cols": cols}
              for rows, cols in tmv.shape_sweep(total_elements)]
    return {"sweep": f"{total_elements >> 20}M", **calibration_trial(
        compiled, points, bias, family, pick=len(points) // 2)}


def save_bundle(path: str, spec: GPUSpec = TESLA_C2050,
                total_elements: int = 1 << 10,
                prune_samples: int = 6, seed: int = 0):
    """Compile + prune the fig10 TMV program, then bundle it.

    The bundle holds the pruned variants and baked tables; a fresh
    process that loads it serves the sweep with no prune or bake (see
    :func:`bundle_verify`).  ``total_elements`` and ``seed`` name the
    sweep :func:`bundle_verify` serves.
    """
    compiled = api.compile(tmv.build(), arch=spec)
    compiled.prune_variants(samples=prune_samples)
    return compiled.save_bundle(path, meta={
        "app": "tmv", "total_elements": total_elements,
        "prune_samples": prune_samples, "seed": seed})


def _serve_sweep(compiled, total_elements: int, seed: int):
    """Run the sweep once; returns its outputs and counter deltas."""
    from ..compiler.exprgen import COMPILE_COUNTER

    before = COMPILE_COUNTER.snapshot()
    stats_before = compiled.stats.snapshot()
    rng = np.random.default_rng(seed)
    outputs = []
    for rows, cols in tmv.shape_sweep(total_elements):
        matrix, _vec, params = tmv.make_input(rows, cols, rng)
        outputs.append(np.asarray(compiled.run(matrix, params).output))
    stats = compiled.stats.since(stats_before)
    return outputs, {
        "compile_evals": stats.compile_evals,
        "model_evals": stats.model_evals,
        "perm_builds": stats.restructure_builds,
        "expr_compiles": COMPILE_COUNTER.since(before).total,
        "table_hits": stats.table_hits,
    }


def bundle_verify(path: str, total_elements: int = 1 << 10,
                  seed: int = 0) -> Dict[str, object]:
    """Load a fig10 bundle and check the zero-cold-start contract.

    Meant to run in a *fresh* process.  The loaded program serves the
    sweep once (``loaded``), then again after ``clear_warm_caches()``
    (``cleared``).  The contract holds (``ok``) when the loaded sweep
    runs no prune or bake (``compile_evals == 0``), makes exactly the
    model evaluations, permutation builds and expression compiles of
    the cleared sweep, and both sweeps' outputs are bit-identical.
    """
    compiled = api.load_bundle(path)
    outputs, loaded = _serve_sweep(compiled, total_elements, seed)
    compiled.clear_warm_caches()
    again, cleared = _serve_sweep(compiled, total_elements, seed)
    identical = all(a.tobytes() == b.tobytes()
                    for a, b in zip(outputs, again))
    same_work = all(loaded[key] == cleared[key] for key in
                    ("model_evals", "perm_builds", "expr_compiles"))
    return {
        "shapes": len(outputs),
        "loaded": loaded,
        "cleared": cleared,
        "identical": identical,
        "checksum": float(sum(float(np.sum(out)) for out in outputs)),
        "ok": loaded["compile_evals"] == 0 and same_work and identical,
    }


def bundle_benchmark(total_elements: int = 1 << 10,
                     spec: GPUSpec = TESLA_C2050,
                     prune_samples: int = 6, seed: int = 0,
                     path: str = None) -> Dict[str, object]:
    """First-request latency: cold compile+prune+run vs bundle load+run.

    Both sides serve the sweep's first shape from nothing.  Cold pays
    structural compilation, variant pruning, model-argmin selection and
    expression compilation; the bundle side pays structural compilation
    plus the load, then selects from the baked tables, prices the plan
    it runs and renders that plan's expression functions.  Outputs must
    be bit-identical.
    """
    import os
    import tempfile
    import time

    owns_path = path is None
    if owns_path:
        fd, path = tempfile.mkstemp(suffix=".bundle.json")
        os.close(fd)
    try:
        save_bundle(path, spec, total_elements, prune_samples, seed)
        rng = np.random.default_rng(seed)
        rows, cols = tmv.shape_sweep(total_elements)[0]
        matrix, _vec, params = tmv.make_input(rows, cols, rng)

        mode = api.ExecMode.VECTORIZED
        started = time.perf_counter()
        cold = api.compile(tmv.build(), arch=spec)
        cold.prune_variants(samples=prune_samples)
        cold_out = np.asarray(cold.run(matrix, params,
                                       options=RunOptions(exec_mode=mode)).output)
        cold_seconds = time.perf_counter() - started

        started = time.perf_counter()
        warm = api.load_bundle(path)
        warm_out = np.asarray(warm.run(matrix, params,
                                       options=RunOptions(exec_mode=mode)).output)
        bundle_seconds = time.perf_counter() - started

        if cold_out.tobytes() != warm_out.tobytes():
            raise AssertionError(
                "bundle-loaded first run diverged from cold-compiled run")
        return {
            "shape": shape_label(rows, cols),
            "cold_seconds": cold_seconds,
            "bundle_seconds": bundle_seconds,
            "speedup": cold_seconds / bundle_seconds,
            "cold_model_evals": cold.stats.model_evals,
            "cold_compile_evals": cold.stats.compile_evals,
            "bundle_model_evals": warm.stats.model_evals,
            "bundle_compile_evals": warm.stats.compile_evals,
        }
    finally:
        if owns_path:
            os.unlink(path)


def run(spec: GPUSpec = TESLA_C2050) -> Dict[str, FigureResult]:
    return {label: run_panel(total, spec)
            for label, total in PANELS.items()}


def kernels_used(result: FigureResult) -> List[str]:
    note = result.notes
    return note.split(": ", 1)[1] if ": " in note else note
