"""Figure 11: BiCGSTAB — Adaptic vs CUBLAS, optimization breakdown.

For each matrix size (512²…8192²) and GPU target (C2050, GTX 285), four
cumulative configurations are compiled: input-unaware baseline,
+actor segmentation, +memory optimizations, +actor integration.  Each bar
is one-iteration time of the CUBLAS decomposition divided by the Adaptic
configuration's time.

Expected shape (§5.2.2): integration dominates at small sizes (the kernel
launches and intermediate traffic CUBLAS pays); segmentation and memory
matter more as the gemv grows to dominate.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .. import api
from ..apps import bicgstab
from ..baselines.cublas import bicgstab_step_seconds
from ..compiler import AdapticOptions
from ..gpu import (DeviceArray, GPUSpec, GTX_285, TESLA_C2050)
from .common import FigureResult, Series, combined_stats, model_for
from ..compiler import RunOptions

SIZES = [512, 1024, 2048, 4096, 8192]
TARGETS = {"C2050": TESLA_C2050, "GTX285": GTX_285}

#: Cumulative configurations, in the figure's bar order.
CONFIGS = [
    ("Baseline", AdapticOptions(segmentation=False, memory=False,
                                integration=False)),
    ("Actor Segmentation", AdapticOptions(segmentation=True, memory=False,
                                          integration=False)),
    ("Memory Optimizations", AdapticOptions(segmentation=True, memory=True,
                                            integration=False)),
    ("Actor Integration", AdapticOptions(segmentation=True, memory=True,
                                         integration=True)),
]


def _step_params(step, n: int) -> dict:
    params = {"n": n}
    if step.name.startswith("gemv"):
        params["rows"] = n
        params["vec"] = None
    if "alpha" in step.program.params:
        params["alpha"] = 1.0
    if "omega" in step.program.params:
        params["omega"] = 1.0
    return params


def _compile_steps(options: AdapticOptions, spec: GPUSpec,
                   bake: bool = False):
    """Compile every BiCGSTAB step once; reusable across all sizes.

    With ``bake=True``, steps that declare an operating range
    (everything but the gemvs, whose ``rows`` co-varies with ``n``) get
    their dispatch tables baked over that range, so per-size selection
    is table lookups plus cached costs — zero runtime model
    evaluations.  The five bake samples are the geometric grid over
    :data:`bicgstab.N_RANGE`, i.e. exactly :data:`SIZES`, where the
    unrefined table is exact; :func:`run` only bakes when every queried
    size lands on that grid, keeping off-grid sweeps on the exact
    model-argmin path (reduction block-size variants have sub-1%%
    near-tie pockets between grid points that no finite table
    resolves).
    """
    steps = []
    for step in bicgstab.step_specs():
        compiled = api.compile(step.program, arch=spec, options=options)
        if bake:
            extras = {k: v
                      for k, v in _step_params(step, SIZES[0]).items()
                      if k not in ("n", "rows", "vec")}
            compiled.bake_decision_tables(samples=len(SIZES),
                                          extra_params=extras,
                                          refine=False)
        steps.append((step, compiled))
    return steps


def adaptic_iteration_seconds(options: AdapticOptions, n: int,
                              spec: GPUSpec,
                              compiled_steps=None) -> float:
    steps = (compiled_steps if compiled_steps is not None
             else _compile_steps(options, spec))
    total = 0.0
    for step, compiled in steps:
        total += compiled.predicted_seconds(_step_params(step, n),
                                            include_transfers=False)
    return total


def functional_check(n: int = 96, spec: GPUSpec = TESLA_C2050,
                     seed: int = 0) -> List[str]:
    """Execute every vector BiCGSTAB step in both executor modes.

    The gemv steps are skipped: they carry the device-resident ``vec``
    constant that the model drivers never materialize on the host.  Each
    remaining step runs end to end under the reference coroutine
    interpreter and under the vectorized block executor; the two output
    buffers must be bit-identical, and a second, warm run per mode
    (cached kernels, recycled buffers) must reproduce the cold one.
    Returns the step names checked.
    """
    rng = np.random.default_rng(seed)
    checked: List[str] = []
    mismatches: List[str] = []
    for step in bicgstab.step_specs():
        if step.name.startswith("gemv"):
            continue
        params = _step_params(step, n)
        data = rng.standard_normal(
            step.program.input_size.evaluate(params))
        compiled = api.compile(step.program, arch=spec)
        outputs = {}
        for mode in (api.ExecMode.REFERENCE, api.ExecMode.VECTORIZED):
            DeviceArray.reset_base_allocator()
            outputs[mode] = np.asarray(
                compiled.run(data, params, options=RunOptions(exec_mode=mode)).output)
            warm = np.asarray(
                compiled.run(data, params, options=RunOptions(exec_mode=mode)).output)
            if warm.tobytes() != outputs[mode].tobytes():
                mismatches.append(f"{step.name} (warm {mode})")
        if (outputs[api.ExecMode.REFERENCE].tobytes()
                != outputs[api.ExecMode.VECTORIZED].tobytes()):
            mismatches.append(step.name)
        checked.append(step.name)
    if mismatches:
        raise AssertionError(f"executor modes disagree on: {mismatches}")
    return checked


def cublas_iteration_seconds(n: int, spec: GPUSpec) -> float:
    model = model_for(spec)
    total = 0.0
    for step in bicgstab.step_specs():
        total += bicgstab_step_seconds(step, model, _step_params(step, n),
                                       spec)
    return total


def run(sizes: List[int] = None, targets: Dict[str, GPUSpec] = None
        ) -> FigureResult:
    sizes = sizes or SIZES
    targets = targets or TARGETS
    labels = [f"{n}x{n}/{t}" for n in sizes for t in targets]
    series: List[Series] = []
    base_times: Dict[str, float] = {}
    for n in sizes:
        for tname, spec in targets.items():
            base_times[f"{n}x{n}/{tname}"] = cublas_iteration_seconds(
                n, spec)
    compiled_programs = []
    # Bake dispatch tables only when every queried size lands on a bake
    # sample, where the table is exact; off-grid sweeps keep the exact
    # model-argmin path.
    bake = all(n in SIZES for n in sizes)
    for cname, options in CONFIGS:
        # Compile each (config, target) pipeline once and reuse it for
        # every size — the programs are input-independent, and their cost
        # caches carry the per-size model evaluations.
        steps_by_target = {tname: _compile_steps(options, spec, bake)
                           for tname, spec in targets.items()}
        for steps in steps_by_target.values():
            compiled_programs.extend(c for _, c in steps)
        ys = []
        for n in sizes:
            for tname, spec in targets.items():
                t = adaptic_iteration_seconds(
                    options, n, spec,
                    compiled_steps=steps_by_target[tname])
                ys.append(base_times[f"{n}x{n}/{tname}"] / t)
        series.append(Series(cname, labels, ys))
    return FigureResult(
        figure="Figure 11",
        title="BiCGSTAB speedup over CUBLAS implementation",
        series=series, unit="x",
        notes="bars are cumulative optimization configurations\n"
              f"selection: {combined_stats(compiled_programs).summary()}")
