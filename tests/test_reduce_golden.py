"""Golden digests of the reduction kernels, pinned across commits.

The differential harness (``test_executor_differential.py``) compares
the two executors within one commit, so a change that alters both the
same way still passes it.  These cases pin every reduction plan's
kernels to digests recorded in ``data/reduce_golden.json``: per run,
the sha256 of the output bytes of the reference, traced vectorized and
untraced vectorized executions, and the traced
:class:`~repro.gpu.executor.LaunchStats` of both traced runs (kernel
names, transactions, coalescing, bank conflicts, barriers).  Each case
also asserts the differential contract on its own runs.

Inputs are ``default_rng`` normal draws and the reducers use no
transcendental functions, so the digests do not depend on the libm of
the Python that runs them.  The cases listed first draw exactly what
``TestReduceDifferential``'s cases draw.

The file is rewritten only on purpose, when a change is meant to alter
what the kernels compute or touch::

    PYTHONPATH=src python tests/test_reduce_golden.py
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from repro.compiler.plans.multireduce import HorizontalReducePlan
from repro.compiler.plans.reduceplan import (LAYOUT_ROW_SOA,
                                             LAYOUT_TRANSPOSED, ReduceShape,
                                             ReduceSingleKernelPlan,
                                             ReduceThreadPerArrayPlan,
                                             ReduceTwoKernelPlan)
from repro.compiler.reducers import ArgReducer, ScalarReducer, reducer_for
from repro.gpu import MODE_REFERENCE, MODE_VECTORIZED, TESLA_C2050
from repro.ir import classify, lift_code

from test_executor_differential import run_mode
from workloads import ISAMAX_SRC, SDOT_SRC, SUM_SRC

pytestmark = pytest.mark.differential

SPEC = TESLA_C2050
GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "reduce_golden.json")
SEED = 12345


# ----------------------------------------------------------------------
# Cases: each draws its runs from a fresh default_rng(SEED)
# ----------------------------------------------------------------------
def _sdot(plan_cls, rng, r=None, n=None, **kw):
    """One sdot run: ``r`` arrays of ``n`` pairs, drawn when not given
    (the differential harness's ``_plan``)."""
    cls = classify(lift_code(SDOT_SRC))
    shape = ReduceShape(lambda p: p.get("r", 1), lambda p: p["n"], 2)
    plan = plan_cls(SPEC, "sdot", shape, lambda p: reducer_for(cls, p),
                    **{"threads": 64, **kw})
    r = int(rng.integers(1, 9)) if r is None else r
    n = int(rng.integers(100, 900)) if n is None else n
    return [(plan, {"r": r, "n": n}, rng.standard_normal(r * n * 2))]


def _isamax(plan_cls, rng, r=3, **kw):
    """isamax over ``r`` rows: a drawn length, then rows shorter than a
    warp."""
    acls = classify(lift_code(ISAMAX_SRC))
    shape = ReduceShape(lambda p: p.get("r", 1), lambda p: p["n"], 1)
    plan = plan_cls(SPEC, "isamax", shape, lambda p: reducer_for(acls, p),
                    **{"threads": 64, **kw})
    return [(plan, {"r": r, "n": n}, rng.standard_normal(r * n))
            for n in (int(rng.integers(100, 1200)), 5)]


def _mixed(rng, two_kernel, threads=64, lengths=None):
    """A scalar sum fused with an arg-max over 3 rows: mixed widths."""
    sum_pat = classify(lift_code(SUM_SRC)).pattern
    argmax_pat = classify(lift_code(ISAMAX_SRC)).pattern
    fns = [lambda p: ScalarReducer(sum_pat, p),
           lambda p: ArgReducer(argmax_pat, p)]
    shape = ReduceShape(lambda p: 3, lambda p: p["n"], 1)
    plan = HorizontalReducePlan(SPEC, "mixed", shape, fns, threads=threads,
                                two_kernel=two_kernel)
    lengths = lengths or (int(rng.integers(100, 700)), 5)
    return [(plan, {"n": n}, rng.standard_normal(3 * n)) for n in lengths]


def _hsdot(rng, two_kernel):
    """A horizontal plan of one reducer: the plain sdot reduction."""
    cls = classify(lift_code(SDOT_SRC))
    shape = ReduceShape(lambda p: p.get("r", 1), lambda p: p["n"], 2)
    plan = HorizontalReducePlan(SPEC, "hsdot", shape,
                                [lambda p: reducer_for(cls, p)],
                                threads=64, two_kernel=two_kernel)
    r, n = int(rng.integers(1, 9)), int(rng.integers(100, 900))
    return [(plan, {"r": r, "n": n}, rng.standard_normal(r * n * 2))]


CASES = {
    # TestReduceDifferential.test_sdot_variants
    "single": lambda g: _sdot(ReduceSingleKernelPlan, g),
    "single-rows3": lambda g: _sdot(ReduceSingleKernelPlan, g,
                                    rows_per_block=3),
    "two_kernel": lambda g: _sdot(ReduceTwoKernelPlan, g),
    "tpa-transposed": lambda g: _sdot(ReduceThreadPerArrayPlan, g,
                                      layout=LAYOUT_TRANSPOSED),
    "tpa-row_soa": lambda g: _sdot(ReduceThreadPerArrayPlan, g,
                                   layout=LAYOUT_ROW_SOA),
    **{f"single-rows{rows}-n{n}":
       (lambda g, rows=rows, n=n: _sdot(ReduceSingleKernelPlan, g, r=7,
                                        n=n, rows_per_block=rows))
       for rows in (1, 3) for n in (1, 4, 63, 64, 65)},
    "two_kernel-64_partials": lambda g: _sdot(ReduceTwoKernelPlan, g, r=1,
                                              n=2100, threads=32),
    # TestReduceDifferential.test_argreduce and
    # test_horizontal_mixed_widths
    "argreduce": lambda g: _isamax(ReduceSingleKernelPlan, g),
    "horizontal-single": lambda g: _mixed(g, False),
    "horizontal-two_kernel": lambda g: _mixed(g, True),
    # Row-SoA input to the tree kernels.
    "single-row_soa": lambda g: _sdot(ReduceSingleKernelPlan, g,
                                      layout=LAYOUT_ROW_SOA),
    "single-rows3-row_soa": lambda g: _sdot(ReduceSingleKernelPlan, g,
                                            r=7, rows_per_block=3,
                                            layout=LAYOUT_ROW_SOA),
    "two_kernel-row_soa": lambda g: _sdot(ReduceTwoKernelPlan, g,
                                          layout=LAYOUT_ROW_SOA),
    # (value, index) states through rows merged per block and through
    # the merge kernel.
    "argreduce-rows3": lambda g: _isamax(ReduceSingleKernelPlan, g, r=7,
                                         rows_per_block=3),
    "argreduce-two_kernel": lambda g: _isamax(ReduceTwoKernelPlan, g),
    # Horizontal plans of one reducer, and 64 partials for 32 merge
    # threads under a horizontal merge.
    "horizontal1-single": lambda g: _hsdot(g, False),
    "horizontal1-two_kernel": lambda g: _hsdot(g, True),
    "horizontal-two_kernel-64_partials": lambda g: _mixed(
        g, True, threads=32, lengths=(2100,)),
}


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def _stats(stats):
    return [dataclasses.asdict(s) for s in stats]


def record(plan, params, data):
    """The golden record of one run, after checking the differential
    contract on it."""
    ref, ref_stats, ref_ex = run_mode(plan, data, params, MODE_REFERENCE)
    vec, vec_stats, vec_ex = run_mode(plan, data, params, MODE_VECTORIZED)
    fast, _, fast_ex = run_mode(plan, data, params, MODE_VECTORIZED,
                                traced=False)
    assert ref_ex.reference_launches > 0
    assert vec_ex.vectorized_launches > 0, "fast path never engaged"
    assert vec_ex.vector_fallbacks == fast_ex.vector_fallbacks == 0
    assert ref.tobytes() == vec.tobytes() == fast.tobytes()
    assert _stats(ref_stats) == _stats(vec_stats)
    return {"params": params, "output": _digest(ref),
            "traced": _digest(vec), "untraced": _digest(fast),
            "reference_stats": _stats(ref_stats),
            "vectorized_stats": _stats(vec_stats)}


def case_records(name):
    rng = np.random.default_rng(SEED)
    return [record(plan, params, data)
            for plan, params, data in CASES[name](rng)]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_reduce_golden(golden, name):
    # Compared as stored: numpy scalars in the stats become plain numbers.
    assert json.loads(json.dumps(case_records(name))) == golden[name]


if __name__ == "__main__":
    records = {name: case_records(name) for name in CASES}
    with open(GOLDEN, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
