"""Golden-structure tests for the generated CUDA C text."""

import numpy as np
import pytest

from repro import Filter, StreamProgram, api
from repro.compiler.plans import (MapPlan, MapShape, ReduceShape,
                                  ReduceSingleKernelPlan,
                                  ReduceThreadPerArrayPlan,
                                  ReduceTwoKernelPlan)
from repro.compiler.reducers import ArgReducer, ScalarReducer
from repro.gpu import TESLA_C2050
from repro.ir import classify, lift_code, parse_expr

from workloads import ISAMAX_SRC, SDOT_SRC, SNRM2_SRC, SUM_SRC

SPEC = TESLA_C2050


def reduction_plan(plan_cls, src=SUM_SRC, **kwargs):
    pattern = classify(lift_code(src)).pattern
    shape = ReduceShape(lambda p: 1, lambda p: p["n"],
                        pattern.pops_per_iter)
    return plan_cls(SPEC, "gold", shape,
                    lambda p: ScalarReducer(pattern, p), **kwargs)


class TestReductionEmission:
    def test_single_kernel_structure(self):
        src = reduction_plan(ReduceSingleKernelPlan,
                             threads=128).cuda_source()
        assert "__global__ void gold_single" in src
        assert "__shared__ float sdata[128]" in src
        assert "__syncthreads()" in src
        assert "for (int active = 128 / 2" in src

    def test_two_kernel_has_initial_and_merge(self):
        src = reduction_plan(ReduceTwoKernelPlan).cuda_source()
        assert "__global__ void gold_initial" in src
        assert "__global__ void gold_merge" in src
        assert "partials" in src

    def test_thread_per_array_transposed_access(self):
        src = reduction_plan(ReduceThreadPerArrayPlan).cuda_source()
        assert "in[i * narrays + r]" in src
        assert "coalesced" in src

    def test_element_function_inlined_multi_pop(self):
        src = reduction_plan(ReduceSingleKernelPlan,
                             src=SDOT_SRC).cuda_source()
        # sdot's element: product of the two popped components.
        assert "(in[idx] * in[idx + 1])" in src
        assert "(r * nelements + i) * 2" in src

    def test_snrm2_element(self):
        src = reduction_plan(ReduceSingleKernelPlan,
                             src=SNRM2_SRC).cuda_source()
        assert "(in[idx] * in[idx])" in src

    def test_min_identity_uses_infinity(self):
        src = reduction_plan(ReduceSingleKernelPlan, src="""
def mn(n):
    best = 1e30
    for i in range(n):
        best = min(best, pop())
    push(best)
""").cuda_source()
        assert "CUDART_INF_F" in src
        assert "fminf" in src

    def test_argreduce_pairwise_state(self):
        pattern = classify(lift_code(ISAMAX_SRC)).pattern
        shape = ReduceShape(lambda p: 1, lambda p: p["n"], 1)
        plan = ReduceSingleKernelPlan(SPEC, "gold", shape,
                                      lambda p: ArgReducer(pattern, p))
        src = plan.cuda_source()
        assert "acc_v" in src and "acc_i" in src


class TestMapEmission:
    def test_grid_stride_loop(self):
        shape = MapShape(lambda p: p["n"], 2, 1)
        plan = MapPlan(SPEC, "gold", shape,
                       [parse_expr("_x0 * _x1")], threads=128)
        src = plan.cuda_source()
        assert "int stride = blockDim.x * gridDim.x" in src
        assert "float _x0 = in[i * 2 + 0]" in src
        assert "out[i * 1 + 0] = (_x0 * _x1)" in src

    def test_restructured_loads(self):
        shape = MapShape(lambda p: p["n"], 2, 1)
        plan = MapPlan(SPEC, "gold", shape, [parse_expr("_x0 + _x1")],
                       layout="restructured")
        src = plan.cuda_source()
        assert "in[0 * n + i]" in src and "in[1 * n + i]" in src


class TestProgramDump:
    def test_whole_program_dump(self):
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r")
        compiled = api.compile(prog)
        src = compiled.cuda_source()
        assert src.count("__global__") >= 4
        assert "Adaptic-generated CUDA" in src
        assert "segment seg0" in src

    def test_dump_mentions_target(self):
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r")
        compiled = api.compile(prog)
        assert "Tesla C2050" in compiled.cuda_source()

    def test_source_is_stable(self):
        """Same program compiles to identical text (deterministic output)."""
        prog = StreamProgram(Filter(SUM_SRC, pop="n", push=1),
                             params=["n", "r"], input_size="n*r")
        first = api.compile(prog).cuda_source()
        second = api.compile(prog).cuda_source()
        assert first == second
