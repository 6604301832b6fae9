"""Executor fast path: counter-based guarantees plus one timing gate.

The vectorized block executor is a *fast path*, never a semantics
change, so the properties pinned here are:

* on a fig09-scale reduction every launch takes the vectorized path —
  no silent fallbacks to the coroutine interpreter;
* both paths produce bit-identical output buffers;
* the fast path is at least 10x faster in wall-clock on that launch
  (the real margin is orders of magnitude; 10x keeps the gate robust
  on loaded CI machines).

The same three hold for a 128x128 image pipeline, whose blur runs the
super-tile stencil: shared-memory staging and windowed tap reads.
"""

import time

import numpy as np
import pytest

from repro import Filter, StreamProgram, api
from repro.apps import imagepipe
from repro.compiler.plans import TiledStencilPlan
from repro.gpu import (Device, DeviceArray, MODE_REFERENCE, MODE_VECTORIZED,
                       TESLA_C2050, VectorCtx)

pytestmark = pytest.mark.differential

SDOT = """
def sdot(n):
    acc = 0.0
    for i in range(n):
        acc = acc + pop() * pop()
    push(acc)
"""

#: fig09-scale: one of the seven VECTOR_SIZES panels.
N = 64 << 10


def _compiled():
    return api.compile(
        StreamProgram(Filter(SDOT, pop="2*n", push=1),
                      params=["n", "r"], input_size="2*n*r",
                      input_ranges={"n": (1 << 10, 4 << 20)}))


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(7).standard_normal(2 * N)


def _run(compiled, data, mode, params=None):
    DeviceArray.reset_base_allocator()
    device = Device(TESLA_C2050, exec_mode=mode)
    start = time.perf_counter()
    result = compiled.run(data, params or {"n": N, "r": 1}, device=device)
    elapsed = time.perf_counter() - start
    return result, elapsed, device.executor


def test_fastpath_engages_without_fallbacks(data):
    compiled = _compiled()
    _, _, executor = _run(compiled, data, MODE_VECTORIZED)
    assert executor.vectorized_launches > 0
    assert executor.vector_fallbacks == 0
    assert executor.reference_launches == 0


def test_reference_mode_never_vectorizes(data):
    compiled = _compiled()
    _, _, executor = _run(compiled, data, MODE_REFERENCE)
    assert executor.reference_launches > 0
    assert executor.vectorized_launches == 0


def test_bit_identical_outputs(data):
    compiled = _compiled()
    ref, _, _ = _run(compiled, data, MODE_REFERENCE)
    vec, _, _ = _run(compiled, data, MODE_VECTORIZED)
    assert (np.asarray(ref.output).tobytes()
            == np.asarray(vec.output).tobytes())


def test_vectorized_at_least_10x_faster(data):
    compiled = _compiled()
    # Warm the program once (plan selection, expression compilation).
    _run(compiled, data, MODE_VECTORIZED)
    _, t_vec, _ = _run(compiled, data, MODE_VECTORIZED)
    _, t_ref, _ = _run(compiled, data, MODE_REFERENCE)
    assert t_ref >= 10 * t_vec, (
        f"expected >=10x speedup, got {t_ref / t_vec:.1f}x "
        f"(ref {t_ref * 1e3:.1f} ms, vec {t_vec * 1e3:.1f} ms)")


def test_stencil_blur_takes_no_index_path(monkeypatch):
    """A warm, untraced 128x128 blur moves every tap, halo and output
    through windows: no access inside its launch builds an index array
    (``VectorCtx._index``)."""
    data, params = imagepipe.make_input(128, 128, np.random.default_rng(7))
    compiled = api.compile(imagepipe.build())
    _run(compiled, data, MODE_VECTORIZED, params)
    launches, inside, index_calls = [], [], []
    execute, index_path = TiledStencilPlan.execute, VectorCtx._index

    def counted_execute(self, *args):
        launches.append(self.name)
        inside.append(True)
        try:
            return execute(self, *args)
        finally:
            inside.pop()

    def counted_index(self, *args):
        if inside:
            index_calls.append(args)
        return index_path(self, *args)

    monkeypatch.setattr(TiledStencilPlan, "execute", counted_execute)
    monkeypatch.setattr(VectorCtx, "_index", counted_index)
    result, _, executor = _run(compiled, data, MODE_VECTORIZED, params)
    assert result.strategy_of("seg1_blur_point").startswith(
        "stencil.super_tile")
    assert len(launches) == 1 and executor.vector_fallbacks == 0
    assert not index_calls, "the blur launch took the index path"


def test_stencil_fastpath_bit_identical_and_10x():
    data, params = imagepipe.make_input(128, 128, np.random.default_rng(7))
    compiled = api.compile(imagepipe.build())
    # Warm the program once (plan selection, expression compilation).
    _run(compiled, data, MODE_VECTORIZED, params)
    vec, t_vec, executor = _run(compiled, data, MODE_VECTORIZED, params)
    ref, t_ref, _ = _run(compiled, data, MODE_REFERENCE, params)
    assert vec.strategy_of("seg1_blur_point").startswith(
        "stencil.super_tile")
    assert executor.vector_fallbacks == 0
    assert executor.reference_launches == 0
    assert (np.asarray(ref.output).tobytes()
            == np.asarray(vec.output).tobytes())
    assert t_ref >= 10 * t_vec, (
        f"expected >=10x speedup, got {t_ref / t_vec:.1f}x "
        f"(ref {t_ref * 1e3:.1f} ms, vec {t_vec * 1e3:.1f} ms)")
