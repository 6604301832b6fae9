"""StreamIt implementations of the paper's benchmark suite (§5).

Each module exposes ``build_*`` functions returning a
:class:`~repro.streamit.StreamProgram` plus a numpy reference
implementation and a FLOP counter for GFLOPS reporting.
"""

from . import (bicgstab, blas1, convolution, imagepipe, insensitive,
               montecarlo, scalar_product, stencil2d, svm, tmv)

#: app name -> (StreamProgram builder, description).  Shared by the CLI
#: and by :func:`repro.api.load_bundle`, which resolves a bundle's
#: ``meta["app"]`` back to the program it was saved from.
BUILDERS = {
    "tmv": (tmv.build, "transposed matrix-vector multiply"),
    "sdot": (lambda: blas1.build("sdot"), "BLAS-1 dot product"),
    "sasum": (lambda: blas1.build("sasum"), "BLAS-1 absolute sum"),
    "snrm2": (lambda: blas1.build("snrm2"), "BLAS-1 2-norm"),
    "isamax": (lambda: blas1.build("isamax"), "BLAS-1 arg-abs-max"),
    "scalar_product": (scalar_product.build,
                       "SDK scalarProd (many vector pairs)"),
    "montecarlo": (montecarlo.build, "SDK MonteCarlo option pricing"),
    "ocean_fft": (stencil2d.build, "oceanFFT surface stencil"),
    "imagepipe": (imagepipe.build, "tone map + blur image pipeline"),
    "convolution": (convolution.build, "separable convolution"),
    "blackscholes": (insensitive.build_blackscholes,
                     "BlackScholes option pricing"),
    "histogram": (insensitive.build_histogram, "64-bin histogram"),
    "kernel_row": (svm.build_kernel_row, "SVM RBF kernel row"),
    "pair_search": (svm.build_pair_search, "SVM violating-pair search"),
}

#: app name -> scalar parameters pinned when pruning or baking the app
#: over its declared input ranges: the ones its cost model reads that
#: are neither a declared range nor derived from one (the BLAS-1 batch
#: count, option-pricing inputs, the stencil row width).  Apps absent
#: here need no pins.
PINS = {
    "sdot": {"r": 1},
    "sasum": {"r": 1},
    "snrm2": {"r": 1},
    "isamax": {"r": 1},
    "montecarlo": dict(montecarlo.DEFAULTS),
    "ocean_fft": {"width": 1024},
    "convolution": {"width": 1024},
}

__all__ = ["blas1", "tmv", "scalar_product", "montecarlo", "stencil2d",
           "convolution", "bicgstab", "svm", "insensitive", "imagepipe",
           "BUILDERS", "PINS"]
