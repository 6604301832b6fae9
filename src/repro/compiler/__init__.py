"""Adaptic compiler: classification, fusion, kernel variants, runtime."""

from .adaptic import AdapticCompiler, AdapticOptions, CompileError
from .runtime import (CompiledProgram, InputLocation, RunOptions, RunResult,
                      SegmentExecution)
from .segments import RegionDispatch, Segment
from .stats import CostCache, SelectionStats

__all__ = [
    "AdapticCompiler", "AdapticOptions", "CompileError",
    "CompiledProgram", "InputLocation", "RunOptions", "RunResult",
    "SegmentExecution",
    "Segment", "RegionDispatch", "CostCache",
    "SelectionStats",
]
