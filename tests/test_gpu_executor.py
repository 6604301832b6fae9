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

    @pytest.mark.parametrize("mode", [MODE_REFERENCE, MODE_VECTORIZED])
    def test_inactive_lanes_are_not_bounds_checked(self, mode):
        """Lanes 12 and up would read past the row, but none of them
        loads: only active lanes' indices are checked."""
        def body(ctx):
            ctx.sstore("s", ctx.tx, float(ctx.global_tid))
            yield SYNC
            if ctx.tx < 12:
                ctx.gstore(ctx.args["out"], ctx.global_tid,
                           ctx.sload("s", ctx.tx + 20))

        def vector_body(ctx):
            ctx.sstore("s", ctx.tx, ctx.global_tid)
            ctx.sync()
            live = ctx.tx < 12
            ctx.gstore(ctx.args["out"], ctx.global_tid,
                       ctx.sload("s", ctx.tx + 20, live), live)

        dev = Device(TESLA_C2050, exec_mode=mode)
        out = dev.alloc(64, dtype=np.float64, name="out")
        dev.launch(Kernel("masked_row", body,
                          shared_spec={"s": (32, np.float64)},
                          vector_body=vector_body),
                   2, 32, args={"out": out})
        assert np.array_equal(
            out.data, [32 * b + t + 20 if t < 12 else 0.0
                       for b in range(2) for t in range(32)])


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


#: Shared row length of :class:`TestSharedWindows`: 8 rows of 12.
ROW = 96


class TestSharedWindows:
    """``VectorCtx.sload_window``/``sstore_window``: the access at index
    ``offset + (tx // cols) * stride + tx % cols``, abbreviated to one
    slice of the name's array.  Values, stored bytes, traced
    ``LaunchStats`` and the bounds rule are the index path's."""

    def _launch(self, vector_body, blocks=3, threads=32, trace=False):
        """Fill each block's row of ``s`` with ``1000 * bx + position``,
        run ``vector_body(ctx, out)``, then copy the rows to ``out``'s
        tail; returns ``out`` and the stats."""
        dev = Device(TESLA_C2050, exec_mode=MODE_VECTORIZED)
        out = dev.alloc(blocks * (threads + ROW), dtype=np.float64,
                        name="out")
        rows = blocks * threads

        def body(ctx):
            for k in range(0, ROW, threads):
                ctx.sstore("s", ctx.tx + k, 1000.0 * ctx.bx + ctx.tx + k)
            ctx.sync()
            vector_body(ctx, out)
            ctx.sync()
            for k in range(0, ROW, threads):
                ctx.gstore(out, rows + ROW * ctx.bx + ctx.tx + k,
                           ctx.sload("s", ctx.tx + k))

        kernel = Kernel("windows", lambda ctx: None,
                        shared_spec={"s": (ROW, np.float64)},
                        vector_body=body)
        stats = dev.launch(kernel, blocks, threads, args={"out": out},
                           trace=trace)
        assert dev.executor.vectorized_launches == 1
        return out.data, stats

    @staticmethod
    def _index(view, offset, cols, stride):
        lanes = view.shape[1]
        cols = lanes if cols is None else cols
        stride = cols if stride is None else stride
        return offset + (view.tx // cols) * stride + view.tx % cols

    # (lanes, offset, cols, stride).  The last two windows lie in the row
    # but not in its rows of ``stride`` elements (one crosses them, one
    # ends in the 5-element tail of 96 = 7 * 13 + 5), so they take the
    # index path.
    WINDOWS = [
        pytest.param(32, 5, None, None, id="one_run"),
        pytest.param(32, 14, 8, 12, id="rows"),
        pytest.param(16, 27, 4, 12, id="lanes16-rows"),
        pytest.param(8, 88, None, None, id="lanes8-row_end"),
        pytest.param(32, 16, 8, 8, id="stride_eq_cols"),
        pytest.param(8, 40, 4, 13, id="lanes8-stride13"),
        pytest.param(32, 6, 8, 12, id="crossing"),
        pytest.param(8, 79, 4, 13, id="lanes8-tail_row"),
    ]

    @pytest.mark.parametrize("lanes,offset,cols,stride", WINDOWS)
    @pytest.mark.parametrize("masked", [False, True],
                             ids=["unmasked", "masked"])
    def test_load_matches_index_path(self, lanes, offset, cols, stride,
                                     masked):
        def load(window):
            def vector_body(ctx, out):
                view = ctx.lanes(lanes)
                mask = (view.tx % 3 != 1) if masked else None
                if window:
                    value = view.sload_window("s", offset, cols, stride,
                                              mask)
                else:
                    value = view.sload(
                        "s", self._index(view, offset, cols, stride), mask)
                if masked:
                    value = np.where(mask, value, -1.0)
                view.gstore(out, view.global_tid, value)
            return vector_body

        for trace in (False, True):
            got, got_stats = self._launch(load(True), trace=trace)
            want, want_stats = self._launch(load(False), trace=trace)
            assert got.tobytes() == want.tobytes()
            if trace:
                assert (dataclasses.asdict(got_stats)
                        == dataclasses.asdict(want_stats))

    @pytest.mark.parametrize("lanes,offset,cols,stride", WINDOWS)
    @pytest.mark.parametrize("masked", [False, True],
                             ids=["unmasked", "masked"])
    def test_store_matches_index_path(self, lanes, offset, cols, stride,
                                      masked):
        def store(window):
            def vector_body(ctx, out):
                view = ctx.lanes(lanes)
                mask = (view.tx % 3 != 1) if masked else None
                value = -1.5 * view.global_tid - 2.0
                if window:
                    view.sstore_window("s", offset, value, cols, stride,
                                       mask)
                else:
                    view.sstore("s", self._index(view, offset, cols, stride),
                                value, mask)
            return vector_body

        for trace in (False, True):
            got, got_stats = self._launch(store(True), trace=trace)
            want, want_stats = self._launch(store(False), trace=trace)
            assert got.tobytes() == want.tobytes()
            active = sum(not masked or t % 3 != 1 for t in range(lanes))
            assert (got < 0).sum() == 3 * active
            if trace:
                assert (dataclasses.asdict(got_stats)
                        == dataclasses.asdict(want_stats))

    @pytest.mark.parametrize("store", [False, True], ids=["load", "store"])
    @pytest.mark.parametrize("offset,cols,stride", [
        (ROW - 7, None, None),      # one run of 8, one past the end
        (60, 8, 12),                # 4 rows of 8 from 60: ends at 104
    ], ids=["one_run", "rows"])
    def test_window_past_row_raises(self, store, offset, cols, stride):
        def vector_body(ctx, out):
            view = ctx.lanes(8 if cols is None else 32)
            if store:
                view.sstore_window("s", offset, -1.0, cols, stride)
            else:
                view.sload_window("s", offset, cols, stride)

        with pytest.raises(IndexError):
            self._launch(vector_body)

    def test_negative_offset_reads_row_end(self):
        def vector_body(ctx, out):
            view = ctx.lanes(8)
            view.gstore(out, view.global_tid, view.sload_window("s", -8))

        out, _ = self._launch(vector_body)
        for b in range(3):
            assert np.array_equal(out[32 * b:32 * b + 8],
                                  1000.0 * b + np.arange(ROW - 8, ROW))

    @pytest.mark.parametrize("cols,stride", [(None, None), (8, 12)],
                             ids=["one_run", "rows"])
    def test_loaded_window_is_a_copy(self, cols, stride):
        def vector_body(ctx, out):
            value = ctx.sload_window("s", 12, cols, stride)
            ctx.sstore_window("s", 12, -1.0, cols, stride)
            ctx.gstore(out, ctx.global_tid, value)

        out, _ = self._launch(vector_body)
        cols, stride = cols or 32, stride or 32
        window = [12 + stride * (t // cols) + t % cols for t in range(32)]
        for b in range(3):
            assert np.array_equal(out[32 * b:32 * b + 32],
                                  1000.0 * b + np.asarray(window))

    @pytest.mark.parametrize("cols,stride", [(5, None), (0, None),
                                             (8, 4), (64, 64)],
                             ids=["cols_5", "cols_0", "stride_lt_cols",
                                  "cols_gt_lanes"])
    @pytest.mark.parametrize("store", [False, True], ids=["load", "store"])
    def test_bad_window_raises(self, cols, stride, store):
        def vector_body(ctx, out):
            if store:
                ctx.sstore_window("s", 0, 1.0, cols, stride)
            else:
                ctx.sload_window("s", 0, cols, stride)

        with pytest.raises(ValueError):
            self._launch(vector_body)


#: Per-block lengths of :class:`TestLoopViews`' shared row and global
#: segment.
LOOP_ROW = 128
LOOP_SEG = 160


def _trips(ctx, n):
    """The loop ``for (s = tx; s < n; s += threads)`` one trip at a
    time: ``(lanes view, s)`` per trip."""
    for first in range(0, n, ctx.threads):
        view = ctx.lanes(min(ctx.threads, n - first))
        yield view, view.tx + first


def _whole(ctx, n):
    """The same loop as one :meth:`VectorCtx.loop` view."""
    loop = ctx.loop(n)
    yield loop, loop.tx


def _whole_kept(ctx, n):
    """As :func:`_whole`, but every phase of the launch reuses one view,
    across the barriers between them."""
    loop = ctx.__dict__.setdefault(f"_test_loop_{n}", ctx.loop(n))
    yield loop, loop.tx


class TestLoopViews:
    """``VectorCtx.loop(n)``: a block's cooperative loop as one context.
    Its loads, stores and windows move the data a per-trip ``lanes``
    loop moves, and its traced ``LaunchStats`` are that loop's."""

    def _launch(self, vector_body, blocks=3, threads=32, trace=False):
        """Run ``vector_body(ctx, src, dst)`` with ``src`` holding
        ``position + 0.5`` and ``dst`` zeros, ``LOOP_SEG`` elements per
        block; returns ``dst`` and the stats."""
        dev = Device(TESLA_C2050, exec_mode=MODE_VECTORIZED)
        size = blocks * LOOP_SEG
        src = dev.to_device(np.arange(size) + 0.5, "src")
        dst = dev.alloc(size, dtype=np.float64, name="dst")
        kernel = Kernel("loop", lambda ctx: None,
                        shared_spec={"s": (LOOP_ROW, np.float64)},
                        vector_body=lambda ctx: vector_body(ctx, src, dst))
        stats = dev.launch(kernel, blocks, threads,
                           args={"src": src, "dst": dst}, trace=trace)
        assert dev.executor.vectorized_launches == 1
        return dst.data, stats

    def _same(self, body, whole=_whole):
        """``body(loop_over)`` run per trip and as one loop view, traced
        and untraced, writes the same bytes with the same stats."""
        for trace in (False, True):
            want, want_stats = self._launch(body(_trips), trace=trace)
            got, got_stats = self._launch(body(whole), trace=trace)
            assert got.tobytes() == want.tobytes()
            if trace:
                assert want_stats.global_requests > 0
                assert (dataclasses.asdict(got_stats)
                        == dataclasses.asdict(want_stats))

    # Below, equal to and above the 32 threads; 70 ends on a ragged trip.
    SIZES = [20, 32, 64, 70]

    @pytest.mark.parametrize("n", SIZES)
    def test_loads_and_stores_match_trips(self, n):
        def body(loop_over):
            def vector_body(ctx, src, dst):
                for view, s in loop_over(ctx, n):
                    keep = (3 * s + view.bx) % 5 != 2
                    v = view.gload(src, view.bx * LOOP_SEG + s, keep)
                    view.sstore("s", (7 * s) % LOOP_ROW,
                                np.where(keep, v, -1.0))
                ctx.sync()
                for view, s in loop_over(ctx, n):
                    view.gstore(dst, view.bx * LOOP_SEG + s,
                                view.sload("s", (7 * s) % LOOP_ROW) + s)
            return vector_body

        self._same(body)

    # (n, cols, stride): a shared window of rows of ``cols``, ``stride``
    # apart, from offset 3; ``None`` is one run.
    WINDOWS = [(20, 5, 7), (32, 8, 10), (64, 8, 9), (70, 7, 11),
               (70, None, None)]

    @pytest.mark.parametrize("n,cols,stride", WINDOWS)
    @pytest.mark.parametrize("masked", [False, True],
                             ids=["unmasked", "masked"])
    def test_windows_match_trips(self, n, cols, stride, masked):
        def body(loop_over):
            def vector_body(ctx, src, dst):
                for view, s in loop_over(ctx, n):
                    c = n if cols is None else cols
                    at = (s // c) * (stride or c) + s % c
                    mask = (s + view.bx) % 3 != 1 if masked else None
                    origin = view.bx * LOOP_SEG + 2
                    if loop_over is _whole:
                        v = view.gload_window(src, origin, cols, stride,
                                              mask)
                        view.sstore_window("s", 3, v, cols, stride, mask)
                    else:
                        v = view.gload(src, origin + at, mask)
                        view.sstore("s", 3 + at, v, mask)
                ctx.sync()
                for view, s in loop_over(ctx, n):
                    at = (s // c) * (stride or c) + s % c
                    mask = (s + view.bx) % 4 != 0 if masked else None
                    origin = view.bx * LOOP_SEG + 1
                    if loop_over is _whole:
                        v = view.sload_window("s", 3, cols, stride, mask)
                        view.gstore_window(dst, origin, v + 1.0, cols,
                                           stride, mask)
                    else:
                        v = view.sload("s", 3 + at, mask)
                        view.gstore(dst, origin + at, v + 1.0, mask)
            return vector_body

        self._same(body)

    @pytest.mark.parametrize("whole", [_whole, _whole_kept],
                             ids=["view_per_phase", "view_kept"])
    def test_divergent_masks_trace_trip_major(self, whole):
        """Two phases whose masks diverge inside a warp on every trip:
        each thread issues a trip's accesses before the next trip's, so
        the traced stats are the per-trip loop's only when the records
        of one loop are ordered trip-major, not call by call, and a
        barrier ends the loop even when its view is used again."""
        n = 96

        def body(loop_over):
            def vector_body(ctx, src, dst):
                for view, s in loop_over(ctx, n):
                    keep = (s * s + view.bx) % 3 != 0
                    a = view.gload(src, view.bx * LOOP_SEG + (5 * s) % n,
                                   keep)
                    b = view.gload(src, view.bx * LOOP_SEG + s, ~keep)
                    view.sstore("s", s, np.where(keep, a, b),
                                (s + view.bx) % 4 != 3)
                ctx.sync()
                for view, s in loop_over(ctx, n):
                    odd = (s // 3 + view.bx) % 2 == 1
                    a = view.sload("s", (3 * s) % n, odd)
                    b = view.sload("s", s, ~odd)
                    view.gstore(dst, view.bx * LOOP_SEG + s,
                                np.where(odd, a, b))
            return vector_body

        _, stats = self._launch(body(whole), trace=True)
        assert stats.shared_bank_conflicts > 0
        self._same(body, whole)

    @pytest.mark.parametrize("cols", [None, 8])
    def test_rows_layout(self, cols):
        """``loop(n, cols)`` lays the lanes out in rows of ``cols``; a
        window of those rows loads without a copy, yet a later store
        leaves the loaded values be."""
        n = 64

        def vector_body(ctx, src, dst):
            loop = ctx.loop(n, cols)
            assert loop.shape == ((3, n) if cols is None else (3, 8, 8))
            loop.sstore_window("s", 0, loop.gload_window(
                src, loop.bx * LOOP_SEG, cols, cols), cols, cols)
            ctx.sync()
            v = loop.sload_window("s", 0, cols, cols)
            loop.sstore_window("s", 0, -1.0, cols, cols)
            loop.gstore_window(dst, loop.bx * LOOP_SEG, v, cols, cols)

        got, _ = self._launch(vector_body)
        for b in range(3):
            seg = slice(b * LOOP_SEG, b * LOOP_SEG + n)
            assert np.array_equal(got[seg], np.arange(n) + b * LOOP_SEG + 0.5)

    @pytest.mark.parametrize("n,cols", [(0, None), (64, 5), (64, 0)])
    def test_bad_loop_raises(self, n, cols):
        with pytest.raises(ValueError):
            self._launch(lambda ctx, src, dst: ctx.loop(n, cols))

    @pytest.mark.parametrize("store", [False, True], ids=["load", "store"])
    @pytest.mark.parametrize("masked", [False, True],
                             ids=["unmasked", "masked"])
    def test_global_window_past_array_raises(self, store, masked):
        def vector_body(ctx, src, dst):
            loop = ctx.loop(40)
            # The last block's window ends 10 past the array.
            origin = loop.bx * LOOP_SEG + LOOP_SEG - 30
            mask = loop.tx != 3 if masked else None
            if store:
                loop.gstore_window(dst, origin, 1.0, mask=mask)
            else:
                loop.gload_window(src, origin, mask=mask)

        with pytest.raises(IndexError):
            self._launch(vector_body)

    def test_masked_lanes_may_leave_the_array(self):
        """Lanes outside the array are fine when masked off."""
        def vector_body(ctx, src, dst):
            loop = ctx.loop(40)
            origin = loop.bx * LOOP_SEG - 10
            inside = origin + loop.tx >= 0
            v = loop.gload_window(src, origin, mask=inside)
            loop.gstore_window(dst, origin + 20, v, mask=inside)

        got, _ = self._launch(vector_body)
        want = np.zeros(3 * LOOP_SEG)
        for b in range(3):
            for t in range(40):
                at = b * LOOP_SEG - 10 + t
                if at >= 0:
                    want[at + 20] = at + 0.5
        assert got.tobytes() == want.tobytes()

    def test_negative_origin_counts_from_end(self):
        def vector_body(ctx, src, dst):
            view = ctx.lanes(8)
            view.gstore_window(dst, view.bx * 8, view.gload_window(src, -8))

        got, _ = self._launch(vector_body)
        tail = np.arange(3 * LOOP_SEG - 8, 3 * LOOP_SEG) + 0.5
        for b in range(3):
            assert np.array_equal(got[8 * b:8 * b + 8], tail)


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
