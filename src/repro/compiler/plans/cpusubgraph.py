"""CPU fallback for stream subgraphs the GPU templates cannot express.

Adaptic's input-unaware stage assigns actors to the CPU or GPU (§3).
Structures outside every GPU template — feedback-ish split-joins, exotic
joiner patterns — execute on the host via the reference stream interpreter,
so *any* valid StreamIt program compiles and runs end to end.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ...gpu import Device, DeviceArray, GPUSpec
from ...perfmodel import PerformanceModel
from ...streamit import flatten, rate_match, run_graph
from ..costing import count_dynamic
from .base import IN, KernelPlan, PlannedLaunch
from .cpuplan import CPU_DISPATCH_SECONDS, CPU_OPS_PER_SECOND


class CpuGraphPlan(KernelPlan):
    """Interpret a stream subgraph on the host."""

    strategy = "cpu.subgraph"
    placement = "cpu"

    def __init__(self, spec: GPUSpec, name: str, stream, threads: int = 256,
                 steady_states: Optional[Callable[[Dict], int]] = None):
        super().__init__(spec, name)
        self.stream = stream
        self.graph = flatten(stream)
        self.optimizations = ["cpu_placement"]
        #: Subgraph steady states one execution runs: one for a whole
        #: program, the first actor's invocations for a fused chain.
        self._states = steady_states or (lambda params: 1)

    # ------------------------------------------------------------------
    def _schedule(self, params):
        return rate_match(self.graph, params)

    def _steady_states(self, params, input_len: int = None) -> int:
        sched = self._schedule(params)
        if input_len is None or sched.inputs_per_steady == 0:
            return 1
        return max(1, input_len // sched.inputs_per_steady)

    def expected_input_size(self, params) -> int:
        return self._schedule(params).inputs_per_steady * self._states(params)

    def output_size(self, params) -> int:
        return self._schedule(params).outputs_per_steady * self._states(params)

    def launches(self, params) -> List[PlannedLaunch]:
        return []

    def predicted_seconds(self, model: PerformanceModel, params) -> float:
        sched = self._schedule(params)
        total_ops = 0.0
        for node in self.graph.filter_nodes():
            counts = count_dynamic(node.filter.work, params)
            per = (counts.comp + counts.pops + counts.pushes + counts.peeks
                   + counts.aux_loads)
            total_ops += per * sched.repetitions[node.id]
        total_ops *= self._states(params)
        return CPU_DISPATCH_SECONDS + total_ops / CPU_OPS_PER_SECOND

    def execute_host(self, data, params) -> np.ndarray:
        sched = self._schedule(params)
        states = self._steady_states(params, len(data))
        output = run_graph(self.graph, sched, data, params,
                           steady_states=states)
        return np.asarray(output, dtype=np.float64)

    def execute(self, device: Device, buffers: Dict[str, DeviceArray],
                params) -> DeviceArray:
        return device.alloc_from(self.execute_host(buffers[IN].data, params),
                                 name=f"{self.name}.out")

    def cuda_source(self) -> str:
        return f"// {self.name}: subgraph executed on the host CPU\n"
