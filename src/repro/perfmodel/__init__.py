"""Analytic performance model and break-even (variant selection) machinery."""

from .breakeven import (AxisSpec, RegionNode, RegionTable, Variant,
                        argmin_variant, geometric_points, sweep_region)
from .calibration import (CalibrationStore, FeedbackConfig,
                          selection_accuracy, size_bucket)
from .hostmodel import (HOST_MEM_BANDWIDTH_GBPS,
                        HOST_VECTOR_DISPATCH_SECONDS,
                        HOST_VECTOR_OPS_PER_SECOND, hop_seconds,
                        layout_transform_seconds)
from .model import (BLOCK_SCHED_OVERHEAD_CYCLES, KernelCategory,
                    KernelEstimate, KernelWorkload, PerformanceModel)

__all__ = [
    "PerformanceModel", "KernelWorkload", "KernelEstimate", "KernelCategory",
    "BLOCK_SCHED_OVERHEAD_CYCLES",
    "Variant", "AxisSpec", "RegionNode", "RegionTable", "sweep_region",
    "argmin_variant", "geometric_points",
    "CalibrationStore", "FeedbackConfig", "selection_accuracy",
    "size_bucket",
    "hop_seconds", "layout_transform_seconds",
    "HOST_VECTOR_OPS_PER_SECOND", "HOST_VECTOR_DISPATCH_SECONDS",
    "HOST_MEM_BANDWIDTH_GBPS",
]
