"""Tests for the SIMT executor: semantics, barriers, instrumentation."""

import dataclasses
import functools
import gc
import weakref

import numpy as np
import pytest

from repro.gpu import (BarrierDivergenceError, Device, Kernel, LaunchError,
                       MODE_REFERENCE, MODE_VECTORIZED, SYNC, TESLA_C2050)
from repro.gpu.kernel import AmbiguousKernelBodyError, kernel_uses_barriers


@pytest.fixture
def dev():
    return Device(TESLA_C2050)


class TestBasicExecution:
    def test_elementwise_kernel(self, dev):
        x = dev.to_device(np.arange(64, dtype=np.float32), "x")
        y = dev.alloc(64, name="y")

        def body(ctx):
            i = ctx.global_tid
            if i < 64:
                ctx.gstore(ctx.args["y"], i, ctx.gload(ctx.args["x"], i) + 1)

        dev.launch(Kernel("inc", body), grid=2, block=32,
                   args={"x": x, "y": y})
        assert np.array_equal(y.data, np.arange(64) + 1)

    def test_grid_block_coordinates(self, dev):
        out = dev.alloc(24, name="out")

        def body(ctx):
            ctx.gstore(ctx.args["out"], ctx.global_tid,
                       ctx.bx * 100 + ctx.tx)

        dev.launch(Kernel("coords", body), grid=3, block=8,
                   args={"out": out})
        expected = [b * 100 + t for b in range(3) for t in range(8)]
        assert np.array_equal(out.data, expected)

    def test_2d_block(self, dev):
        out = dev.alloc(16, name="out")

        def body(ctx):
            ctx.gstore(ctx.args["out"], ctx.thread_linear,
                       ctx.ty * 4 + ctx.tx)

        dev.launch(Kernel("b2d", body), grid=1, block=(4, 4),
                   args={"out": out})
        assert np.array_equal(out.data, np.arange(16))

    def test_launch_stats_when_traced(self, dev):
        x = dev.to_device(np.zeros(128, dtype=np.float32), "x")

        def body(ctx):
            ctx.gload(ctx.args["x"], ctx.global_tid)

        stats = dev.launch(Kernel("read", body), grid=1, block=128,
                           args={"x": x}, trace=True)
        assert stats.global_requests == 4      # 4 warps x 1 load
        assert stats.global_transactions == 4
        assert stats.coalesced_fraction == 1.0

    def test_untraced_returns_none(self, dev):
        def body(ctx):
            pass

        assert dev.launch(Kernel("nop", body), 1, 32, args={}) is None


class TestBarriers:
    def test_shared_memory_visibility_across_barrier(self, dev):
        out = dev.alloc(64, name="out")

        def body(ctx):
            # Thread t writes slot t; after the barrier, reads slot t+1.
            ctx.sstore("s", ctx.tx, float(ctx.tx))
            yield SYNC
            neighbor = (ctx.tx + 1) % ctx.bdim.x
            ctx.gstore(ctx.args["out"], ctx.global_tid,
                       ctx.sload("s", neighbor))

        kernel = Kernel("rotate", body,
                        shared_spec={"s": (64, np.float64)})
        dev.launch(kernel, 1, 64, args={"out": out})
        assert np.array_equal(out.data, [(t + 1) % 64 for t in range(64)])

    def test_tree_reduction(self, dev):
        x = dev.to_device(np.arange(128, dtype=np.float64), "x")
        out = dev.alloc(1, dtype=np.float64, name="out")

        def body(ctx):
            ctx.sstore("s", ctx.tx, ctx.gload(ctx.args["x"], ctx.tx))
            yield SYNC
            active = 64
            while active >= 1:
                if ctx.tx < active:
                    ctx.sstore("s", ctx.tx,
                               ctx.sload("s", ctx.tx)
                               + ctx.sload("s", ctx.tx + active))
                yield SYNC
                active //= 2
            if ctx.tx == 0:
                ctx.gstore(ctx.args["out"], 0, ctx.sload("s", 0))

        kernel = Kernel("reduce", body,
                        shared_spec={"s": (128, np.float64)})
        dev.launch(kernel, 1, 128, args={"x": x, "out": out})
        assert out.data[0] == np.arange(128).sum()

    def test_divergent_barrier_detected(self, dev):
        def body(ctx):
            if ctx.tx < 16:
                yield SYNC   # only half the block arrives

        with pytest.raises(BarrierDivergenceError):
            dev.launch(Kernel("diverge", body), 1, 32, args={})

    def test_barrier_count_reported(self, dev):
        def body(ctx):
            yield SYNC
            yield SYNC

        stats = dev.launch(Kernel("two_syncs", body), 2, 32, args={},
                           trace=True)
        assert stats.barriers == 4  # 2 per block x 2 blocks


class TestBarrierDetection:
    """Classification must survive wrapping — a decorated barrier kernel
    silently losing its barriers is a correctness bug, not a detail."""

    @staticmethod
    def _barrier_body(ctx, scale=1.0):
        ctx.sstore("s", ctx.tx, float(ctx.tx) * scale)
        yield SYNC
        ctx.gstore(ctx.args["out"], ctx.global_tid,
                   ctx.sload("s", (ctx.tx + 1) % ctx.bdim.x))

    def test_partial_wrapped_generator(self, dev):
        body = functools.partial(self._barrier_body, scale=2.0)
        kernel = Kernel("p", body, shared_spec={"s": (32, np.float64)})
        assert kernel_uses_barriers(kernel)
        out = dev.alloc(32, name="out")
        dev.launch(kernel, 1, 32, args={"out": out})
        assert np.array_equal(out.data,
                              [2.0 * ((t + 1) % 32) for t in range(32)])

    def test_wraps_decorated_generator(self):
        def deco(fn):
            @functools.wraps(fn)
            def inner(ctx):
                return fn(ctx)
            return inner

        kernel = Kernel("w", deco(self._barrier_body))
        assert kernel_uses_barriers(kernel)

    def test_callable_object_with_generator_call(self):
        class Body:
            def __call__(self, ctx):
                yield SYNC

        assert kernel_uses_barriers(Kernel("c", Body()))

        class Plain:
            def __call__(self, ctx):
                pass

        assert not kernel_uses_barriers(Kernel("c2", Plain()))

    def test_ambiguous_body_raises(self):
        class Opaque:
            pass

        opaque = Opaque()
        with pytest.raises(AmbiguousKernelBodyError):
            kernel_uses_barriers(Kernel("a", opaque))

    def test_meta_override_beats_inference(self):
        class Opaque:
            pass

        kernel = Kernel("m", Opaque(), meta={"barriers": True})
        assert kernel_uses_barriers(kernel)
        kernel = Kernel("m2", Opaque(), meta={"barriers": False})
        assert not kernel_uses_barriers(kernel)

    def test_plain_body_returning_generator_raises_loudly(self, dev):
        def sneaky(ctx):
            def gen():
                yield SYNC
            return gen()

        with pytest.raises(LaunchError, match="generator"):
            dev.launch(Kernel("sneaky", sneaky), 1, 32, args={})

    def test_misdeclared_generator_raises_loudly(self, dev):
        def barrier_body(ctx):
            yield SYNC

        kernel = Kernel("mis", barrier_body, meta={"barriers": False})
        with pytest.raises(LaunchError, match="generator"):
            dev.launch(kernel, 1, 32, args={})


class TestLaunchValidation:
    def test_block_too_large(self, dev):
        with pytest.raises(LaunchError):
            dev.launch(Kernel("nop", lambda ctx: None), 1, 2048, args={})

    def test_empty_grid(self, dev):
        with pytest.raises(LaunchError):
            dev.launch(Kernel("nop", lambda ctx: None), 0, 32, args={})

    def test_shared_overflow(self, dev):
        kernel = Kernel("big", lambda ctx: None,
                        shared_spec={"s": (64 * 1024, np.float32)})
        with pytest.raises(LaunchError):
            dev.launch(kernel, 1, 32, args={})


def _shared_row_kernel(index, store):
    """Two bodies of one kernel: fill each block's row of ``s`` with
    global thread ids, then load ``s[index(tx, bx)]`` into ``out`` (or,
    with ``store``, overwrite it)."""

    def body(ctx):
        ctx.sstore("s", ctx.tx, float(ctx.global_tid))
        yield SYNC
        i = index(ctx.tx, ctx.bx)
        if store:
            ctx.sstore("s", i, -1.0)
        else:
            ctx.gstore(ctx.args["out"], ctx.global_tid, ctx.sload("s", i))

    def vector_body(ctx):
        ctx.sstore("s", ctx.tx, ctx.global_tid)
        ctx.sync()
        i = index(ctx.tx, ctx.bx)
        if store:
            ctx.sstore("s", i, -1.0)
        else:
            ctx.gstore(ctx.args["out"], ctx.global_tid, ctx.sload("s", i))

    return Kernel("shared_row", body, shared_spec={"s": (32, np.float64)},
                  vector_body=vector_body)


class TestSharedRowBounds:
    """Both executors index a block's shared array as numpy indexes a
    1-D array: past the row raises ``IndexError``, a negative index
    counts from the row's end.  Only block 0 strays, so an executor
    that reached block 1's row instead would not raise."""

    def _launch(self, mode, index, store=False):
        dev = Device(TESLA_C2050, exec_mode=mode)
        out = dev.alloc(64, dtype=np.float64, name="out")
        try:
            dev.launch(_shared_row_kernel(index, store), 2, 32,
                       args={"out": out})
        finally:
            assert dev.executor.vector_fallbacks == 0
        return out.data

    @pytest.mark.parametrize("mode", [MODE_REFERENCE, MODE_VECTORIZED])
    @pytest.mark.parametrize("store", [False, True], ids=["load", "store"])
    @pytest.mark.parametrize("index", [lambda tx, bx: tx + 1 - bx,
                                       lambda tx, bx: bx - tx - 2],
                             ids=["past_end", "before_start"])
    def test_out_of_row_index_raises(self, mode, store, index):
        with pytest.raises(IndexError):
            self._launch(mode, index, store)

    def test_negative_index_counts_from_row_end(self):
        def index(tx, bx):
            return -1 - tx

        ref = self._launch(MODE_REFERENCE, index)
        vec = self._launch(MODE_VECTORIZED, index)
        assert np.array_equal(
            ref, [32 * b + 31 - t for b in range(2) for t in range(32)])
        assert vec.tobytes() == ref.tobytes()


class TestLaneViews:
    """``VectorCtx.lanes(n)``: the first ``n`` threads of every block as
    a ``(blocks, n)`` context over the same memory.  Its accessors keep
    the bounds rule, its barriers count on the launch, and its traced
    accesses record as a ``tx < n`` mask over the whole block does."""

    def _launch(self, vector_body, blocks=2, threads=32, trace=False):
        dev = Device(TESLA_C2050, exec_mode=MODE_VECTORIZED)
        out = dev.alloc(blocks * threads, dtype=np.float64, name="out")
        kernel = Kernel("lanes", lambda ctx: None,
                        shared_spec={"s": (threads, np.float64)},
                        vector_body=vector_body)
        stats = dev.launch(kernel, blocks, threads, args={"out": out},
                           trace=trace)
        assert dev.executor.vectorized_launches == 1
        return out.data, stats

    @pytest.mark.parametrize("store", [False, True], ids=["load", "store"])
    def test_index_past_row_raises(self, store):
        def vector_body(ctx):
            view = ctx.lanes(8)
            index = view.tx + 25        # lane 7 reaches 32, past the row
            if store:
                view.sstore("s", index, -1.0)
            else:
                view.sload("s", index)

        with pytest.raises(IndexError):
            self._launch(vector_body)

    def test_negative_index_counts_from_row_end(self):
        def vector_body(ctx):
            ctx.sstore("s", ctx.tx, ctx.global_tid)
            ctx.sync()
            view = ctx.lanes(8)
            view.gstore(ctx.args["out"], view.global_tid,
                        view.sload("s", -1 - view.tx))

        out, _ = self._launch(vector_body)
        expect = np.zeros(64)
        for b in range(2):
            expect[32 * b:32 * b + 8] = 32 * b + 31 - np.arange(8)
        assert out.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("n", [0, 33])
    def test_lane_count_outside_block_raises(self, n):
        with pytest.raises(ValueError):
            self._launch(lambda ctx: ctx.lanes(n))

    def test_sync_counts_on_the_launch(self):
        def vector_body(ctx):
            ctx.sync()
            ctx.lanes(4).sync()
            ctx.lanes(1).lanes(16).sync()

        _, stats = self._launch(vector_body, blocks=3, trace=True)
        assert stats.barriers == 3 * 3

    def test_launch_context_freed_without_gc(self):
        """Views point at their launch, never the launch at itself, so a
        launch's arrays go when it returns, not at the next GC pass."""
        contexts = []

        def vector_body(ctx):
            contexts.append(weakref.ref(ctx))
            ctx.lanes(4).sync()

        gc.disable()
        try:
            self._launch(vector_body)
            assert contexts[0]() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("n", [1, 5, 40, 64])
    def test_traced_view_records_as_a_mask(self, n):
        threads = 64

        def accesses(ctx, tx, mask):
            # Strided, so the launch has bank conflicts and uncoalesced
            # global requests to count.
            out = ctx.args["out"]
            value = ctx.sload("s", (2 * tx) % threads, mask)
            ctx.sstore("s", (3 * tx) % threads, value + 1.0, mask)
            value = value + ctx.gload(out, ctx.bx * threads + tx, mask)
            ctx.gstore(out, ctx.bx * threads + (5 * tx) % threads, value,
                       mask)

        def fill(ctx):
            ctx.sstore("s", ctx.tx, ctx.global_tid)
            ctx.gstore(ctx.args["out"], ctx.global_tid, -ctx.global_tid)
            ctx.sync()

        def viewed(ctx):
            fill(ctx)
            view = ctx.lanes(n)
            accesses(view, view.tx, None)

        def masked(ctx):
            fill(ctx)
            accesses(ctx, ctx.tx, ctx.tx < n)

        view_out, view_stats = self._launch(viewed, 3, threads, trace=True)
        mask_out, mask_stats = self._launch(masked, 3, threads, trace=True)
        assert view_stats.global_requests > 0
        assert (dataclasses.asdict(view_stats)
                == dataclasses.asdict(mask_stats))
        assert view_out.tobytes() == mask_out.tobytes()


class TestDeviceAccounting:
    def test_transfer_time_accrues(self, dev):
        dev.to_device(np.zeros(1 << 20, dtype=np.float32))
        assert dev.transfer_seconds > 0
        before = dev.transfer_seconds
        arr = dev.alloc(16)
        dev.to_host(arr)
        assert dev.transfer_seconds > before

    def test_launch_count(self, dev):
        dev.launch(Kernel("nop", lambda ctx: None), 1, 32, args={})
        dev.launch(Kernel("nop", lambda ctx: None), 1, 32, args={})
        assert dev.launch_count == 2
        dev.reset_accounting()
        assert dev.launch_count == 0
