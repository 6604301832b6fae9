"""§5.1 code-size claim: "Adaptic's output binaries were on average 1.4x and
upto 2.5x larger than their input-unaware counterparts".

Our proxy is the surviving-variant count per segment after break-even
pruning over each benchmark's declared input range (the input-unaware
compiler emits exactly one kernel per segment).
"""

from __future__ import annotations

from .. import api, apps
from ..gpu import GPUSpec, TESLA_C2050
from .common import FigureResult, Series

#: benchmark -> program factory; pruning pins come from ``apps.PINS``.
CASES = {
    "sdot": lambda: apps.blas1.build("sdot"),
    "sasum": lambda: apps.blas1.build("sasum"),
    "snrm2": lambda: apps.blas1.build("snrm2"),
    "isamax": lambda: apps.blas1.build("isamax"),
    "tmv": apps.tmv.build,
    "scalar_product": apps.scalar_product.build,
    "montecarlo": apps.montecarlo.build,
    "ocean_fft": apps.stencil2d.build,
    "vectoradd": apps.insensitive.build_vectoradd,
    "quasirandom": apps.insensitive.build_quasirandom,
}


def run(spec: GPUSpec = TESLA_C2050, samples: int = 5,
        tolerance: float = 0.15) -> FigureResult:
    names, ratios = [], []
    for name, prog_fn in CASES.items():
        compiled = api.compile(prog_fn(), arch=spec)
        compiled.prune_variants(samples=samples,
                                extra_params=apps.PINS.get(name),
                                tolerance=tolerance)
        names.append(name)
        ratios.append(compiled.code_size_ratio())
    names.append("average")
    ratios.append(sum(ratios) / len(ratios))
    return FigureResult(
        figure="Section 5.1 (code size)",
        title="Kernel variants per segment after range pruning",
        series=[Series("variants/segment", names, ratios)], unit="x",
        notes="paper: binaries 1.4x average, up to 2.5x")
