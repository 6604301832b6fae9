"""Adaptic: adaptive input-aware compilation for graphics engines.

Reproduction of Samadi et al., PLDI 2012.  The public API mirrors the
paper's workflow:

1. Express the algorithm once in the StreamIt-style DSL
   (:class:`Filter`, :class:`Pipeline`, :class:`SplitJoin`,
   :class:`StreamProgram`).
2. Compile with :func:`compile_program` for a GPU target
   (:data:`TESLA_C2050`, :data:`GTX_285`) and the input range of interest.
3. Run the :class:`CompiledProgram` on any input — the runtime kernel
   management picks the variant optimized for that input's size and shape.

>>> import numpy as np
>>> from repro import Filter, StreamProgram, compile_program
>>> prog = StreamProgram(
...     Filter('''
... def total(n):
...     acc = 0.0
...     for i in range(n):
...         acc = acc + pop()
...     push(acc)
... ''', pop="n", push=1),
...     params=["n"], input_size="n")
>>> compiled = compile_program(prog)
>>> result = compiled.run(np.ones(1024), {"n": 1024})
>>> float(result.output[0])
1024.0
"""

from . import api
from .compiler import (AdapticCompiler, AdapticOptions, CompiledProgram,
                       CompileError, InputLocation, RunOptions, RunResult,
                       compile_program)
from .errors import (CalibrationError, KernelExecutionError,
                     KernelTimeoutError, ModelSweepError, ReproError,
                     SelectionError, TransferError)
from .faults import FaultInjector, FaultPlan
from .gpu import (Device, ExecMode, GTX_285, GTX_480, GPUSpec, Kernel,
                  LaunchConfig, TESLA_C2050, get_target)
from .perfmodel import (CalibrationStore, FeedbackConfig, KernelCategory,
                        KernelWorkload, PerformanceModel, Variant)
from .streamit import (Duplicate, FeedbackLoop, Filter, Pipeline, RoundRobin,
                       SplitJoin, StreamProgram, roundrobin, run_program)

__version__ = "1.0.0"

__all__ = [
    # stable facade
    "api",
    # DSL
    "Filter", "Pipeline", "SplitJoin", "FeedbackLoop", "Duplicate",
    "RoundRobin", "roundrobin", "StreamProgram", "run_program",
    # compiler
    "AdapticCompiler", "AdapticOptions", "compile_program",
    "CompiledProgram", "CompileError", "RunResult",
    # runtime enums / options / feedback
    "ExecMode", "InputLocation", "RunOptions", "CalibrationStore",
    "FeedbackConfig",
    # robustness: error taxonomy + fault injection
    "ReproError", "SelectionError", "KernelExecutionError",
    "KernelTimeoutError", "TransferError", "CalibrationError",
    "ModelSweepError", "FaultInjector", "FaultPlan",
    # GPU targets / substrate
    "GPUSpec", "TESLA_C2050", "GTX_285", "GTX_480", "get_target", "Device",
    "Kernel",
    "LaunchConfig",
    # performance model
    "PerformanceModel", "KernelWorkload", "KernelCategory", "Variant",
    "__version__",
]
