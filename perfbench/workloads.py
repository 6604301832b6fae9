"""The benchmark's workloads and the closed loops that drive them.

Every workload draws its inputs from the seed before anything is timed:
a bounded pool of ``POOL`` inputs per shape, and an endless request
sequence made of seeded permutations of a *deck* that holds every
(shape, input location) binding at its exact share.  The stratified
deck keeps the mix of slow and fast shapes the same in every run, so
runs of different seeds measure the same distribution of inputs.

The program is touched only through public entry points (``api.compile``,
``prune_variants``, ``CompiledProgram.load_bundle``,
``CompiledProgram.run``, ``Server.submit``) and public reports
(``RunResult``, ``ServeResult.stage_seconds``, ``CompiledProgram.stats``,
``ServeMetrics``, a benchmark-owned ``Device``'s ``launch_count``).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import subprocess
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import api
from repro.apps import imagepipe, tmv

#: Inputs drawn per shape before timing; requests reuse them.
POOL = 2
#: Requests every measured pass completes whatever ``--seconds`` says:
#: ``latency_p99_ms`` needs ten samples beyond it, and
#: ``modeled_us_per_req`` averages exactly the first ``MIN_REQUESTS``
#: requests of the seed's sequence, so it repeats bit for bit per seed.
MIN_REQUESTS = 1000
#: Requests per run bit-compared against the coroutine-interpreter oracle.
ORACLE_SAMPLES = 3
#: The oracle runs every simulated GPU thread as a coroutine; only inputs
#: up to this many elements are cheap enough to draw for the bit-compare.
ORACLE_MAX_ELEMENTS = 4096
#: Stage keys of ``RunResult.stage_seconds``; each becomes a child span.
STAGES = ("select", "restructure", "h2d", "kernel", "d2h", "compile")
VECTORIZED = api.ExecMode.VECTORIZED
HOST, DEVICE = api.InputLocation.HOST, api.InputLocation.DEVICE


@dataclasses.dataclass
class Binding:
    """One (shape, input location) a workload sends, with its inputs."""

    label: str
    params: Dict
    location: api.InputLocation
    pool: List[np.ndarray]
    #: The app's numpy reference: input -> expected output.
    reference: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        self.options = api.RunOptions(exec_mode=VECTORIZED,
                                      location=self.location)
        self._expected: Dict[int, np.ndarray] = {}

    @property
    def elements(self) -> int:
        return self.pool[0].size

    def expected(self, k: int) -> np.ndarray:
        """Reference output of pool input ``k``, computed once."""
        out = self._expected.get(k)
        if out is None:
            out = self._expected[k] = self.reference(self.pool[k])
        return out


def output_ok(binding: Binding, k: int, output: np.ndarray,
              rtol: float) -> bool:
    """Whether ``output`` matches the numpy reference of pool input ``k``.

    ``rtol`` also scales the absolute tolerance by the largest expected
    magnitude: a TMV row whose products cancel to near zero carries the
    rounding error of its terms, not of its sum.
    """
    expected = binding.expected(k)
    if output.shape != expected.shape:
        return False
    scale = float(np.abs(expected).max()) if expected.size else 0.0
    return bool(np.allclose(output, expected, rtol=rtol, atol=rtol * scale))


def request_stream(deck: List[Binding], seed: int
                   ) -> Iterator[Tuple[int, Binding, int]]:
    """Endless seeded sequence of (request id, binding, pool index).

    Each pass through ``deck`` is one random permutation of it, so any
    ``len(deck)`` consecutive requests hold every binding at its share.
    """
    rng = np.random.default_rng([seed, 2])
    rid = 0
    while True:
        for index in rng.permutation(len(deck)):
            yield rid, deck[int(index)], int(rng.integers(POOL))
            rid += 1


def pass_over(rid: int, deck: List[Binding], elapsed: float,
              seconds: float, min_requests: int) -> bool:
    """Whether a pass ends before request ``rid``.

    A pass ends only at a deck boundary, so it sends every binding at
    its exact share: the latency percentiles then always fall on the
    same bindings, instead of jumping between a fast and a slow one as
    a partial deck tips the ranks.
    """
    return (rid % len(deck) == 0 and rid >= min_requests
            and elapsed >= seconds)


def oracle_keys(bindings: List[Binding], seed: int) -> set:
    """Seeded (binding label, pool index) pairs for the oracle compare."""
    small = [(b.label, k) for b in bindings
             if b.elements <= ORACLE_MAX_ELEMENTS for k in range(POOL)]
    rng = np.random.default_rng([seed, 3])
    picks = rng.choice(len(small), size=min(ORACLE_SAMPLES, len(small)),
                       replace=False)
    return {small[int(i)] for i in picks}


def oracle_mismatches(compiled, kept: Dict[tuple, tuple]) -> int:
    """Kept outputs that differ in any bit from an ``ExecMode.REFERENCE``
    run of the same input, which executes every GPU thread as a
    coroutine."""
    wrong = 0
    for _key, (binding, k, output) in sorted(kept.items()):
        options = api.RunOptions(exec_mode=api.ExecMode.REFERENCE,
                                 location=binding.location)
        oracle = compiled.run(binding.pool[k], binding.params,
                              options=options)
        if not np.array_equal(oracle.output, output):
            wrong += 1
    return wrong


def tmv_bindings(shapes, rng, device_every: int = 0
                 ) -> Tuple[List[Binding], List[Binding]]:
    """TMV bindings and deck; with ``device_every = n`` each shape sends
    ``n - 1`` host-resident requests and one device-resident one."""
    bindings, deck = [], []
    for rows, cols in shapes:
        vec = rng.standard_normal(cols)
        pool = [rng.standard_normal(rows * cols) for _ in range(POOL)]
        params = {"rows": rows, "cols": cols, "vec": vec}

        def reference(data, vec=vec, rows=rows, cols=cols):
            return tmv.reference(data, vec, rows, cols)

        host = Binding(f"{rows}x{cols}/host", params, HOST, pool, reference)
        bindings.append(host)
        if device_every:
            device = Binding(f"{rows}x{cols}/device", params, DEVICE, pool,
                             reference)
            bindings.append(device)
            deck += [host] * (device_every - 1) + [device]
        else:
            deck.append(host)
    return bindings, deck


@dataclasses.dataclass
class Program:
    """One set-up's product: the program and what set-up observed."""

    compiled: object
    #: Benchmark-owned device passed to ``run(device=...)``; ``None``
    #: when the server owns execution.
    device: Optional[object]
    #: Binding label -> ``predicted_total_seconds`` of its warm-up run.
    modeled: Dict[str, float]
    #: ``compiled.stats`` at the end of set-up.
    stats: object


@dataclasses.dataclass
class Pass:
    """What one measured pass over the request sequence observed."""

    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    wrong: int = 0
    #: Requests whose modeled cost differed from their binding's
    #: set-up run: the modeled clock must not drift within a run.
    modeled_drift: int = 0
    latencies: List[float] = dataclasses.field(default_factory=list)
    #: predicted_total_seconds of each request with id < MIN_REQUESTS.
    modeled: List[float] = dataclasses.field(default_factory=list)
    #: Per-request observations (traced passes only).
    records: List[Dict] = dataclasses.field(default_factory=list)
    #: (label, pool index) -> (binding, pool index, output) for the oracle.
    kept: Dict[tuple, tuple] = dataclasses.field(default_factory=dict)
    stats: object = None
    serve_metrics: object = None

    @property
    def errors(self) -> int:
        return self.failed + self.rejected + self.wrong

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.wall if self.wall > 0 else 0.0

    def check(self, binding: Binding, k: int, output: np.ndarray,
              rtol: float, keep) -> None:
        """Count a wrong output; keep the first output of each key the
        oracle compare asked for."""
        if not output_ok(binding, k, output, rtol):
            self.wrong += 1
        key = (binding.label, k)
        if key in keep and key not in self.kept:
            self.kept[key] = (binding, k, output.copy())


class Trace:
    """Spans recorded by the benchmark, kept in memory until the end.

    A span is ``[name, start, end, parent id, request id]``.  Spans made
    from stage reports know only their duration, so :meth:`lay_out`
    places them end to end from their parent's start; a parent's self
    time is its duration minus its children's.
    """

    def __init__(self):
        self.spans: List[list] = []

    def add(self, name, start, end, parent=None, request=None) -> int:
        self.spans.append([name, start, end, parent, request])
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name, parent=None):
        entry = [name, time.perf_counter(), None, parent, None]
        self.spans.append(entry)
        try:
            yield len(self.spans) - 1
        finally:
            entry[2] = time.perf_counter()

    def lay_out(self, parent, start, durations, request) -> None:
        for name, seconds in durations:
            self.add(name, start, start + seconds, parent, request)
            start += seconds

    def durations(self, name, parent: str) -> List[float]:
        """Durations of the ``name`` spans whose parent is a ``parent``
        span: set-up's ``compile`` is not a request's ``compile`` stage."""
        return [end - start for span_name, start, end, up, _r in self.spans
                if span_name == name and up is not None
                and self.spans[up][0] == parent]

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, request) in \
                    enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "parent": parent, "name": name,
                    "request": request, "start": start, "end": end}) + "\n")


def placements(compiled) -> Dict[tuple, str]:
    """(segment name, strategy) -> "cpu" | "gpu" for every plan."""
    return {(segment.name, plan.strategy): getattr(plan, "placement", "gpu")
            for segment in compiled.segments for plan in segment.plans}


def table_leaves(compiled) -> int:
    """Leaves of every baked dispatch table (region boxes, 1-D ranges)."""
    total = 0
    for segment in compiled.segments:
        dispatch = segment.dispatch
        if dispatch is None:
            continue
        if hasattr(dispatch, "region"):
            total += sum(1 for _ in dispatch.region.leaves())
        else:
            total += len(dispatch.table.subranges)
    return total


def regret_pct(compiled, deck: List[Binding]) -> float:
    """Modeled regret of automatic placement against the best pinned
    chain over the deck: 100 * (sum auto / sum best pinned - 1).  A
    program without CPU plans prices all three chains alike."""
    auto = best = 0.0
    for binding in deck:
        def priced(placement):
            return compiled.predicted_seconds(
                binding.params, input_on_host=binding.location,
                placement=placement)
        auto += priced("auto")
        best += min(priced("gpu"), priced("cpu"))
    return 100.0 * (auto / best - 1.0)


def _record(span, latency, stages, binding, result, where, *, launches=0,
            share=1, queue=0.0, batch=0.0):
    """One traced request: the durations the per-layer metrics fold.

    ``span`` is the request's share of the program's wall (its ``run()``
    call, or its part of a served dispatch); its self time is ``span``
    minus the stage reports.
    """
    sides = [where[(sel.segment, sel.strategy)] for sel in result.selections]
    return {
        "span": span, "latency": latency,
        "self": span - sum(s for _n, s in stages),
        "stages": dict(stages), "host": binding.location is HOST,
        "launches": launches,
        "kernel_modeled": result.predicted_kernel_seconds / share,
        "transfer_modeled": result.transfer_seconds / share,
        "cpu_segments": sides.count("cpu"), "segments": len(sides),
        "hops": sum(a != b for a, b in zip(sides, sides[1:])),
        "queue": queue, "batch": batch,
    }


class DirectWorkload:
    """One closed-loop client calling ``CompiledProgram.run()``."""

    name = ""
    rtol = 0.0
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 3

    def inputs(self, seed) -> Tuple[List[Binding], List[Binding]]:
        raise NotImplementedError

    def compile(self):
        raise NotImplementedError

    def bake(self, compiled) -> None:
        raise NotImplementedError

    def prepare(self, workdir: str) -> None:
        """Untimed work before the first set-up."""

    def setup(self, bindings: List[Binding], trace: Trace) -> Program:
        """Cold set-up: compile, bake, then one run per binding."""
        with trace.span("setup") as root:
            with trace.span("compile", root):
                compiled = self.compile()
            with trace.span("bake", root):
                self.bake(compiled)
            device = api.Device(compiled.spec, exec_mode=VECTORIZED)
            modeled = {}
            with trace.span("warmup", root):
                for binding in bindings:
                    result = compiled.run(binding.pool[0], binding.params,
                                          options=binding.options,
                                          device=device)
                    modeled[binding.label] = result.predicted_total_seconds
        device.reset_accounting()
        return Program(compiled, device, modeled, compiled.stats.snapshot())

    def drive(self, program: Program, deck: List[Binding], seed: int,
              seconds: float, min_requests: int,
              trace: Optional[Trace] = None, keep=frozenset()) -> Pass:
        """Closed loop over the seed's request sequence until
        :func:`pass_over`; output checks are not measured."""
        compiled, device = program.compiled, program.device
        where = placements(compiled)
        out = Pass()
        before = compiled.stats.snapshot()
        checking = 0.0
        start = time.perf_counter()
        for rid, binding, k in request_stream(deck, seed):
            if pass_over(rid, deck, time.perf_counter() - start - checking,
                         seconds, min_requests):
                break
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                result = compiled.run(binding.pool[k], binding.params,
                                      options=binding.options, device=device)
            except api.ReproError:
                out.failed += 1
                continue
            t1 = time.perf_counter()
            out.latencies.append(t1 - t0)
            launches = device.launch_count
            device.reset_accounting()
            modeled = result.predicted_total_seconds
            if rid < min_requests:
                out.modeled.append(modeled)
            if modeled != program.modeled[binding.label]:
                out.modeled_drift += 1
            if trace is not None:
                stages = [(name, result.stage_seconds.get(name, 0.0))
                          for name in STAGES]
                request = trace.add("request", t0, t1, None, rid)
                trace.lay_out(request, t0, stages, rid)
                out.records.append(_record(
                    t1 - t0, t1 - t0, stages, binding, result, where,
                    launches=launches))
            c0 = time.perf_counter()
            out.check(binding, k, result.output, self.rtol, keep)
            checking += time.perf_counter() - c0
        out.wall = time.perf_counter() - start - checking
        out.stats = compiled.stats.since(before)
        return out


class TmvSweep(DirectWorkload):
    """Figure 10's TMV over every power-of-two factorization of 2^10,
    2^12, 2^14 and 2^16 elements; a quarter of requests device-resident."""

    name = "tmv-sweep"
    rtol = 1e-10

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        shapes = [shape for total in (1 << 10, 1 << 12, 1 << 14, 1 << 16)
                  for shape in tmv.shape_sweep(total)]
        return tmv_bindings(shapes, rng, device_every=4)

    def compile(self):
        return api.compile(tmv.build())

    def bake(self, compiled):
        compiled.prune_variants()


class ImagepipePlaced(DirectWorkload):
    """Imagepipe with placement as a selection axis, over every
    (width, height) in {32, 48, 64, 96, 128, 192, 256, 512}^2."""

    name = "imagepipe-placed"
    rtol = 1e-12
    SIDES = (32, 48, 64, 96, 128, 192, 256, 512)
    #: ``AdapticOptions(prune=True, placement=True)`` prunes inside
    #: ``api.compile``; compiling without it and calling the same
    #: ``prune_variants(range_samples)`` builds the same program while
    #: timing the prune step as its own span.
    OPTIONS = api.AdapticOptions(placement=True)

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        bindings = []
        for width in self.SIDES:
            for height in self.SIDES:
                pool = [rng.standard_normal(width * height)
                        for _ in range(POOL)]

                def reference(data, width=width, height=height):
                    return imagepipe.reference(data, width, height)

                bindings.append(Binding(
                    f"{width}x{height}/host",
                    {"width": width, "height": height}, HOST, pool,
                    reference))
        return bindings, list(bindings)

    def compile(self):
        return api.compile(imagepipe.build(), options=self.OPTIONS)

    def bake(self, compiled):
        compiled.prune_variants(self.OPTIONS.range_samples)


class ServeTmv:
    """The 12 TMV shapes of 2^8 and 2^10 elements through ``Server``."""

    name = "serve-tmv"
    rtol = 1e-10
    #: A load from the bundle takes about ten milliseconds, so many of
    #: them are needed for a steady median.
    setups = 40
    #: Closed-loop coroutine clients, alternating between the tenants.
    #: Every client waits out each stall of the dispatch thread, so with
    #: 32 clients the top 1% of latencies came from two or three stalls
    #: and the p99 spread 27% across runs; with 8 it spread 11%.
    CLIENTS = 8
    TENANTS = ("alice", "bob")
    SHAPES = tmv.shape_sweep(1 << 8) + tmv.shape_sweep(1 << 10)

    def __init__(self):
        self.bundle = None

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        return tmv_bindings(self.SHAPES, rng)

    def prepare(self, workdir: str) -> None:
        """Save the artifact bundle set-up loads, in another process."""
        self.bundle = os.path.join(workdir, "serve-tmv.bundle.json")
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "run.py")
        subprocess.run([sys.executable, script, "--save-bundle",
                        self.bundle], check=True, timeout=120)

    @classmethod
    def save_bundle(cls, path: str) -> None:
        """Compile, prune and warm every served shape, then bundle it."""
        compiled = api.compile(tmv.build())
        compiled.prune_variants()
        options = api.RunOptions(exec_mode=VECTORIZED)
        for rows, cols in cls.SHAPES:
            compiled.warmup({"rows": rows, "cols": cols,
                             "vec": np.zeros(cols)}, options=options)
        compiled.save_bundle(path, meta={"app": "tmv"})

    def setup(self, bindings, trace: Trace) -> Program:
        """Set-up from the bundle: ``api.load_bundle`` split in its two
        steps, so the structural compile is timed apart from the load."""
        with trace.span("setup") as root:
            with trace.span("compile", root):
                compiled = api.compile(tmv.build())
            with trace.span("bundle_load", root):
                compiled.load_bundle(self.bundle)
        return Program(compiled, None, {}, compiled.stats.snapshot())

    def drive(self, program: Program, deck: List[Binding], seed: int,
              seconds: float, min_requests: int,
              trace: Optional[Trace] = None, keep=frozenset()) -> Pass:
        """``CLIENTS`` closed-loop coroutine clients on one event loop,
        drawing from one request sequence until :func:`pass_over`;
        outputs are checked after the loop, so checks are not measured."""
        compiled = program.compiled
        where = placements(compiled)
        out = Pass()
        served: List[tuple] = []
        config = api.ServeConfig(fuse_axis="rows",
                                 options=api.RunOptions(exec_mode=VECTORIZED))
        server = api.Server(compiled, config, tenants=[
            api.TenantConfig(name) for name in self.TENANTS])
        before = compiled.stats.snapshot()
        stream = request_stream(deck, seed)
        clock = {"over": False}

        async def client(tenant):
            while not clock["over"]:
                rid, binding, k = next(stream)
                if pass_over(rid, deck, time.perf_counter() - clock["start"],
                             seconds, min_requests):
                    clock["over"] = True
                    break
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = await server.submit(binding.pool[k],
                                                 binding.params,
                                                 tenant=tenant)
                except api.AdmissionError:
                    out.rejected += 1
                    continue
                except api.ReproError:
                    out.failed += 1
                    continue
                t1 = time.perf_counter()
                out.latencies.append(t1 - t0)
                served.append((rid, binding, k, result.output))
                if trace is not None:
                    out.records.append(self._trace(trace, rid, t0, t1,
                                                   binding, result, where))

        async def main():
            async with server:
                clock["start"] = time.perf_counter()
                await asyncio.gather(*(
                    client(self.TENANTS[i % len(self.TENANTS)])
                    for i in range(self.CLIENTS)))
                out.wall = time.perf_counter() - clock["start"]

        asyncio.run(main())
        out.stats = compiled.stats.since(before)
        out.serve_metrics = server.metrics
        # Served fusion groups depend on timing, so each request's modeled
        # cost is that of the chain select() gives it alone.
        priced = {}
        for rid, binding, k, output in served:
            out.check(binding, k, output, self.rtol, keep)
            if rid < min_requests:
                if binding.label not in priced:
                    priced[binding.label] = compiled.predicted_seconds(
                        binding.params, input_on_host=binding.location)
                out.modeled.append(priced[binding.label])
        return out

    @staticmethod
    def _trace(trace, rid, t0, t1, binding, result, where):
        """Spans and record of one served request.  A fused run is shared
        by its group, so its stages and modeled costs are split evenly;
        the dispatch wall is split over the group either way."""
        run = result.run
        share = result.batch_size if result.fused else 1
        stages = [(name, run.stage_seconds.get(name, 0.0) / share)
                  for name in STAGES]
        queue = result.stage_seconds["queue"]
        batch = result.stage_seconds["batch"]
        request = trace.add("request", t0, t1, None, rid)
        trace.add("queue", t0, t0 + queue, request, rid)
        dispatch = trace.add("batch", t0 + queue, t0 + queue + batch,
                             request, rid)
        trace.lay_out(dispatch, t0 + queue, stages, rid)
        return _record(batch / result.batch_size, t1 - t0, stages, binding,
                       run, where, share=share, queue=queue, batch=batch)


WORKLOADS = {cls.name: cls for cls in (TmvSweep, ImagepipePlaced, ServeTmv)}
