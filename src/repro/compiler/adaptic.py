"""The Adaptic compiler driver (§3, Figure 2).

Pipeline: flatten the StreamIt program → classify every actor (pattern
matching) → integrate actors (vertical/horizontal fusion) → generate kernel
*variants* per segment under the enabled optimization groups → prune
variants that win nowhere in the declared input ranges → package everything
as a :class:`CompiledProgram` whose runtime kernel management selects and
launches the right variant for the actual input.

Optimization groups mirror the paper's breakdown (Figure 11):

* *(always)* input-unaware baseline — fixed-configuration kernels that work
  for every input;
* ``segmentation`` — input-adaptive actor segmentation: stream reduction
  shapes (single/two-kernel, thread-per-array) and adaptive launch
  geometry (§4.2);
* ``memory`` — memory restructuring and neighboring-access super tiles
  (§4.1);
* ``integration`` — vertical and horizontal actor integration (§4.3).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CompileError
from ..gpu import GPUSpec, TESLA_C2050
from ..ir import classify, nodes as N
from ..ir.rates import RateExpr
from ..perfmodel import PerformanceModel
from ..streamit import (Duplicate, Filter, FlatGraph, Pipeline,
                        SplitJoin, Stream, StreamProgram, flatten,
                        rate_match)
from .fusion import (compose_maps, compose_roundrobin_maps,
                     compose_transfer_into_map, fuse_map_into_argreduce,
                     fuse_map_into_reduction)
from .plans.base import freeze_scalars
from .plans import (CpuPlan, GenericActorPlan, GenericShape,
                    LAYOUT_INTERLEAVED, LAYOUT_RESTRUCTURED, LAYOUT_ROW_SOA,
                    LAYOUT_ROWS, LAYOUT_TRANSPOSED, MapPlan, MapShape,
                    NaiveStencilPlan, ReduceShape, ReduceSingleKernelPlan,
                    ReduceThreadPerArrayPlan, ReduceTwoKernelPlan,
                    StencilShape, TiledStencilPlan)
from .plans.multireduce import HorizontalReducePlan, SeparateReducePlan
from .reducers import ArgReducer, ScalarReducer
from .runtime import CompiledProgram
from .segments import Segment

#: Layouts that coincide with canonical stream order (no restructuring).
CANONICAL_LAYOUTS = {LAYOUT_INTERLEAVED, LAYOUT_ROWS}


@dataclasses.dataclass
class AdapticOptions:
    """Optimization-group switches (Figure 11's cumulative bars)."""

    segmentation: bool = True
    memory: bool = True
    integration: bool = True
    threads: int = 256
    prune: bool = False
    range_samples: int = 6
    #: Whole-segment-chain fusion in the vectorized executor: linear
    #: producer→consumer runs of map-shaped segments execute as one
    #: emitted kernel with in-arena intermediates, when the cost model
    #: predicts at least :attr:`fuse_min_gain`.  Opt-in because fusion
    #: changes launch accounting (one launch per chain instead of one
    #: per segment), which the differential stats contract notices.
    fuse_chains: bool = False
    #: Minimum model-predicted speedup (fused chain vs per-segment
    #: launches) a span must clear before it is fused — the runtime
    #: mirror of :attr:`~repro.serve.ServeConfig.fuse_min_gain`.  The
    #: savings are the interior launch overheads, so small inputs clear
    #: the bar and bandwidth-bound large inputs stay unfused.
    fuse_min_gain: float = 1.05
    #: Optional :class:`~repro.faults.FaultInjector` threaded into the
    #: compiled program's runtime and devices (testing/chaos drills).
    faults: object = None
    #: Heterogeneous placement as a selection axis: map segments also get
    #: host (CPU) plan variants priced by the host vector model, the cost
    #: layer charges per-candidate transfer direction and layout
    #: transforms, and the runtime materializes h2d/d2h hops at
    #: CPU/GPU placement boundaries.  Opt-in because it adds candidates
    #: (selection outcomes can change) — default-off programs stay
    #: bit-identical to pre-placement behavior.
    placement: bool = False

    @staticmethod
    def baseline() -> "AdapticOptions":
        return AdapticOptions(segmentation=False, memory=False,
                              integration=False)

    def label(self) -> str:
        parts = ["baseline"]
        if self.segmentation:
            parts.append("seg")
        if self.memory:
            parts.append("mem")
        if self.integration:
            parts.append("int")
        if self.fuse_chains:
            # Fused-chain sources live in the bundle, so a fusion-enabled
            # program has a distinct bundle identity; default-off
            # programs keep their historical fingerprints.
            parts.append("fuse")
        if self.placement:
            # Placement-enabled programs carry extra variants and
            # placement-aware tables — a distinct bundle identity.
            parts.append("place")
        return "+".join(parts)


@dataclasses.dataclass
class _ActorSpec:
    """One classified actor (or fused actor group) awaiting plan generation."""

    kind: str                    # map | reduction | argreduce | stencil |
                                 # transfer | generic | multi_reduce | cpu
    pattern: object
    filters: Tuple[Filter, ...]
    gather: Optional[N.Expr] = None
    fused: int = 1
    branches: Tuple["_ActorSpec", ...] = ()
    stream: Optional[Stream] = None   # for CPU-subgraph fallbacks
    #: True when induction-variable substitution rewrote the work function.
    transformed: bool = False


class _Sizing:
    """Schedule-derived sizes as functions of the parameter binding."""

    def __init__(self, program: StreamProgram, graph: FlatGraph):
        self.program = program
        self.graph = graph
        self.node_of = {id(node.filter): node
                        for node in graph.filter_nodes()}
        self._cache: Dict[tuple, object] = {}

    def _key(self, params) -> tuple:
        return freeze_scalars(params)

    def schedule(self, params):
        key = self._key(params)
        if key not in self._cache:
            self._cache[key] = rate_match(self.graph, params)
        return self._cache[key]

    def steady_states(self, params) -> int:
        if self.program.input_size is None:
            return 1
        total = self.program.input_size.evaluate(params)
        per = self.schedule(params).inputs_per_steady
        if per == 0:
            return 1
        if total % per:
            raise CompileError(
                f"declared input size {total} is not a multiple of the "
                f"steady-state consumption {per}")
        return total // per

    def invocations(self, filt: Filter) -> Callable[[Dict], int]:
        node = self.node_of[id(filt)]

        def fn(params) -> int:
            sched = self.schedule(params)
            return sched.repetitions[node.id] * self.steady_states(params)
        return fn


class AdapticCompiler:
    """Compiles StreamIt programs into input-adaptive kernel variants."""

    def __init__(self, spec: GPUSpec = TESLA_C2050,
                 options: Optional[AdapticOptions] = None):
        self.spec = spec
        self.options = options or AdapticOptions()
        self.model = PerformanceModel(spec)

    # ==================================================================
    def compile(self, program: StreamProgram) -> CompiledProgram:
        graph = flatten(program.top)
        sizing = _Sizing(program, graph)
        specs = self._segment_stream(program.top)
        segments: List[Segment] = []
        for index, spec in enumerate(specs):
            segments.append(self._build_segment(spec, sizing, index))
        compiled = CompiledProgram(
            program=program, spec=self.spec, model=self.model,
            segments=segments, options=self.options)
        if self.options.prune and program.input_ranges:
            compiled.prune_variants(self.options.range_samples)
        return compiled

    def _thread_options(self):
        """Candidate threads-per-block values for parameter customization."""
        t = self.options.threads
        options = [t]
        if t >= 128:
            options.append(t // 2)
        if t >= 256:
            options.append(t // 4)
        return options

    # ==================================================================
    # Classification and integration
    # ==================================================================
    def _classify_filter(self, filt: Filter) -> _ActorSpec:
        if filt.state:
            # Stateful actors carry values across invocations — inherently
            # serial, so they bypass the matchers (which would misread the
            # state variable as iteration-local) and run on the host.
            return _ActorSpec(kind="stateful", pattern=None,
                              filters=(filt,))
        result = classify(filt.work)
        if result.category == "generic" and self.options.segmentation:
            # Intra-actor parallelization (§4.2.2): break linear
            # recurrences by induction-variable substitution, then try the
            # matchers again on the rewritten work function.
            from ..ir.transforms import substitute_recurrences
            rewritten = substitute_recurrences(filt.work)
            if rewritten is not None:
                retried = classify(rewritten)
                if retried.category != "generic":
                    spec = _ActorSpec(kind=retried.category,
                                      pattern=retried.pattern,
                                      filters=(filt,))
                    spec.transformed = True
                    return spec
        return _ActorSpec(kind=result.category, pattern=result.pattern,
                          filters=(filt,))

    def _segment_stream(self, stream: Stream) -> List[_ActorSpec]:
        if isinstance(stream, Filter):
            return [self._classify_filter(stream)]
        if isinstance(stream, Pipeline):
            specs: List[_ActorSpec] = []
            for child in stream.children:
                specs.extend(self._segment_stream(child))
            if self.options.integration:
                specs = self._fuse_pipeline(specs)
            return specs
        if isinstance(stream, SplitJoin):
            spec = self._segment_splitjoin(stream)
            if spec is not None:
                return [spec]
            return [_ActorSpec(kind="cpu", pattern=None,
                               filters=tuple(stream.filters()),
                               stream=stream)]
        raise CompileError(
            f"unsupported stream construct {type(stream).__name__}")

    def _fuse_pipeline(self, specs: List[_ActorSpec]) -> List[_ActorSpec]:
        """Greedy vertical integration over a pipeline's actor list."""
        out: List[_ActorSpec] = []
        for spec in specs:
            if not out:
                out.append(spec)
                continue
            prev = out[-1]
            fused = self._try_fuse(prev, spec)
            if fused is not None:
                out[-1] = fused
            else:
                out.append(spec)
        return out

    def _try_fuse(self, up: _ActorSpec,
                  down: _ActorSpec) -> Optional[_ActorSpec]:
        if up.gather is not None and down.kind != "noop":
            # A gather-carrying map only fuses forward if the downstream
            # composition machinery preserves the translation; keep simple.
            if up.kind == "map" and down.kind == "map" \
                    and down.pattern.pops_per_iter == 1 \
                    and up.pattern.pushes_per_iter == 1:
                pattern = compose_maps(up.pattern, down.pattern)
                if pattern is not None:
                    return _ActorSpec(
                        kind="map", pattern=pattern,
                        filters=up.filters + down.filters,
                        gather=up.gather, fused=up.fused + down.fused)
            return None
        if up.kind == "transfer" and down.kind == "map":
            pattern = compose_transfer_into_map(up.pattern, down.pattern)
            if pattern is not None:
                gather = pattern.removed_recurrences.pop("__gather__")
                return _ActorSpec(kind="map", pattern=pattern,
                                  filters=up.filters + down.filters,
                                  gather=gather,
                                  fused=up.fused + down.fused)
        if up.kind == "map" and down.kind == "map":
            pattern = compose_maps(up.pattern, down.pattern)
            if pattern is not None:
                return _ActorSpec(kind="map", pattern=pattern,
                                  filters=up.filters + down.filters,
                                  fused=up.fused + down.fused)
        if up.kind == "map" and down.kind == "reduction":
            pattern = fuse_map_into_reduction(up.pattern, down.pattern)
            if pattern is not None:
                return _ActorSpec(kind="reduction", pattern=pattern,
                                  filters=up.filters + down.filters,
                                  fused=up.fused + down.fused)
        if up.kind == "map" and down.kind == "argreduce":
            pattern = fuse_map_into_argreduce(up.pattern, down.pattern)
            if pattern is not None:
                return _ActorSpec(kind="argreduce", pattern=pattern,
                                  filters=up.filters + down.filters,
                                  fused=up.fused + down.fused)
        chainable = ("generic", "generic_chain", "map")
        if (up.kind in chainable and down.kind in chainable
                and "generic" in (up.kind, down.kind)
                or up.kind == "generic_chain" and down.kind in chainable):
            # Vertical integration through on-chip intermediates (§4.3.1):
            # at least one side is an unclassified actor, so pattern-level
            # composition was impossible.  Fuse when the producer's push
            # rate matches the consumer's pop rate per invocation (so
            # invocation counts coincide), the consumer needs no extra
            # lookahead, and no gather/aux complications are in play.
            from ..ir.analysis import expr_equal
            up_filter = up.filters[-1]
            down_filter = down.filters[0]
            if (up.gather is None and down.gather is None
                    and expr_equal(up_filter.push.expr,
                                   down_filter.pop.expr)
                    and expr_equal(down_filter.peek.expr,
                                   down_filter.pop.expr)
                    and not down_filter.state and not up_filter.state):
                return _ActorSpec(kind="generic_chain", pattern=None,
                                  filters=up.filters + down.filters,
                                  fused=up.fused + down.fused)
        return None

    def _segment_splitjoin(self, sj: SplitJoin) -> Optional[_ActorSpec]:
        branch_specs: List[List[_ActorSpec]] = [
            self._segment_stream(child) for child in sj.children]
        if any(len(bs) != 1 for bs in branch_specs):
            return None
        branches = [bs[0] for bs in branch_specs]

        if isinstance(sj.splitter, Duplicate):
            if all(b.kind in ("reduction", "argreduce") for b in branches):
                from ..ir.analysis import expr_equal
                first = branches[0].pattern
                compatible = all(
                    b.pattern.pops_per_iter == first.pops_per_iter
                    and expr_equal(b.pattern.trip, first.trip)
                    for b in branches[1:])
                if compatible:
                    return _ActorSpec(
                        kind="multi_reduce", pattern=None,
                        filters=tuple(f for b in branches
                                      for f in b.filters),
                        branches=tuple(branches))
            return None

        # Round-robin split-join of maps → one interleaved map.
        weights_in = [RateExpr(w) for w in sj.splitter.weights]
        weights_out = [RateExpr(w) for w in sj.joiner.weights]
        if not all(w.is_constant for w in weights_in + weights_out):
            return None
        win = [w.evaluate({}) for w in weights_in]
        wout = [w.evaluate({}) for w in weights_out]
        if all(b.kind == "map" and b.gather is None for b in branches):
            pattern = compose_roundrobin_maps(
                win, [b.pattern for b in branches], wout)
            if pattern is not None:
                return _ActorSpec(
                    kind="map", pattern=pattern,
                    filters=tuple(f for b in branches for f in b.filters),
                    fused=len(branches))
        return None

    # ==================================================================
    # Plan generation
    # ==================================================================
    def _consts(self, filters: Sequence[Filter]) -> tuple:
        return tuple(sorted({name for f in filters for name in f.consts}))

    def _arrays_fn(self, consts: tuple):
        def fn(params):
            if params is None:
                return {}
            # Arrays may be absent during model-only evaluation (variant
            # selection needs cost metadata, not data); they are required
            # only when the plan actually executes.
            return {name: np.asarray(params[name]) for name in consts
                    if params.get(name) is not None}
        return fn

    def _build_segment(self, spec: _ActorSpec, sizing: _Sizing,
                       index: int) -> Segment:
        name = f"seg{index}_{spec.filters[0].name if spec.filters else 'sub'}"
        consts = self._consts(spec.filters)
        builder = {
            "map": self._build_map,
            "reduction": self._build_reduction,
            "argreduce": self._build_reduction,
            "stencil": self._build_stencil,
            "transfer": self._build_transfer,
            "generic": self._build_generic,
            "generic_chain": self._build_generic_chain,
            "stateful": self._build_stateful,
            "multi_reduce": self._build_multi_reduce,
            "cpu": self._build_cpu,
        }.get(spec.kind)
        if builder is None:
            raise CompileError(f"no builder for actor kind {spec.kind!r}")
        segment = builder(spec, sizing, name)
        segment.consts = consts
        segment.actors = tuple(f.name for f in spec.filters)
        return segment

    # -- reductions -------------------------------------------------------
    def _reducer_factory(self, spec: _ActorSpec):
        consts = self._consts(spec.filters)
        arrays_fn = self._arrays_fn(consts)
        pattern = spec.pattern
        cls = ScalarReducer if spec.kind == "reduction" else ArgReducer
        # Model queries hit this factory once per variant per selection;
        # cache array-free reducers by their scalar parameters so the
        # element functions are compiled once, not per dispatch.
        cache: Dict[tuple, object] = {}

        def fn(params):
            if params is None:
                return cls(pattern, None)
            arrays = arrays_fn(params)
            if arrays:
                return cls(pattern, params, arrays)
            key = freeze_scalars(params)
            if key not in cache:
                cache[key] = cls(pattern, params)
            return cache[key]

        return fn

    def _build_reduction(self, spec: _ActorSpec, sizing: _Sizing,
                         name: str) -> Segment:
        pattern = spec.pattern
        reduction_filter = spec.filters[-1]
        narrays_fn = sizing.invocations(reduction_filter)
        trip = RateExpr(pattern.trip)
        shape = ReduceShape(narrays_fn, trip.evaluate, pattern.pops_per_iter)
        reducer_fn = self._reducer_factory(spec)
        opts = self.options
        threads = opts.threads
        fused_tag = ["vertical_integration"] if spec.fused > 1 else []

        plans = []
        base = ReduceSingleKernelPlan(self.spec, name, shape, reducer_fn,
                                      LAYOUT_ROWS, threads)
        plans.append(base)
        if opts.segmentation:
            # Parameters customization (Figure 2): the same structures are
            # also generated at alternative block sizes so the model can
            # match the launch geometry to the input.
            for t in self._thread_options():
                single = ReduceSingleKernelPlan(self.spec, name, shape,
                                                reducer_fn, LAYOUT_ROWS, t)
                two = ReduceTwoKernelPlan(self.spec, name, shape,
                                          reducer_fn, LAYOUT_ROWS, t)
                if t != threads:
                    single.strategy += f"@{t}"
                    two.strategy += f"@{t}"
                if t != threads:
                    plans.append(single)
                plans.append(two)
            plans.append(ReduceThreadPerArrayPlan(self.spec, name, shape,
                                                  reducer_fn, LAYOUT_ROWS,
                                                  threads))
        if opts.memory:
            if pattern.pops_per_iter > 1:
                thread_opts = (self._thread_options() if opts.segmentation
                               else [threads])
                for t in thread_opts:
                    single = ReduceSingleKernelPlan(
                        self.spec, name, shape, reducer_fn, LAYOUT_ROW_SOA,
                        t)
                    two = ReduceTwoKernelPlan(
                        self.spec, name, shape, reducer_fn, LAYOUT_ROW_SOA,
                        t)
                    if t != threads:
                        single.strategy += f"@{t}"
                        two.strategy += f"@{t}"
                    plans.append(single)
                    plans.append(two)
            plans.append(ReduceThreadPerArrayPlan(
                self.spec, name, shape, reducer_fn, LAYOUT_TRANSPOSED,
                threads))
        if opts.integration:
            for rows in (4, 16):
                plans.append(ReduceSingleKernelPlan(
                    self.spec, name, shape, reducer_fn, LAYOUT_ROWS,
                    threads, rows_per_block=rows))
        for plan in plans:
            plan.optimizations = plan.optimizations + fused_tag
        out_w = reducer_fn(None).outputs_per_array
        return Segment(
            name=name, kind=spec.kind, plans=plans,
            input_size=shape.input_size,
            output_size=lambda p: shape.narrays(p) * out_w)

    # -- maps ---------------------------------------------------------------
    def _build_map(self, spec: _ActorSpec, sizing: _Sizing,
                   name: str) -> Segment:
        pattern = spec.pattern
        last = spec.filters[-1]
        inv_fn = sizing.invocations(last)
        trip = RateExpr(pattern.trip)

        def iterations(params) -> int:
            # Invocations of the (final) fused actor times iterations per
            # invocation.  For round-robin fusions the branch actors fire
            # in lockstep (one fused iteration per splitter round), so the
            # last filter's invocation count is representative.
            return inv_fn(params) * trip.evaluate(params)

        shape = MapShape(iterations, pattern.pops_per_iter,
                         pattern.pushes_per_iter)
        arrays_fn = self._arrays_fn(self._consts(spec.filters))
        opts = self.options
        plans: List = [
            MapPlan(self.spec, name, shape, pattern.outputs, arrays_fn,
                    LAYOUT_INTERLEAVED, opts.threads,
                    fused_actors=spec.fused, gather=spec.gather)
        ]
        layouts = [LAYOUT_INTERLEAVED]
        if opts.memory and pattern.pops_per_iter > 1 and spec.gather is None:
            layouts.append(LAYOUT_RESTRUCTURED)
            plans.append(MapPlan(self.spec, name, shape, pattern.outputs,
                                 arrays_fn, LAYOUT_RESTRUCTURED,
                                 opts.threads, fused_actors=spec.fused))
        if opts.integration and spec.gather is None:
            for layout in layouts:
                for ipt in (4, 16):
                    plans.append(MapPlan(self.spec, name, shape,
                                         pattern.outputs, arrays_fn,
                                         layout, opts.threads,
                                         items_per_thread=ipt,
                                         fused_actors=spec.fused))
        if opts.placement:
            from .plans import HostMapPlan
            plans.append(HostMapPlan(self.spec, name, shape, pattern.outputs,
                                     arrays_fn, gather=spec.gather))
        if spec.transformed:
            for plan in plans:
                plan.optimizations = (plan.optimizations
                                      + ["intra_actor_parallelization"])
        return Segment(name=name, kind="map", plans=plans,
                       input_size=shape.input_size,
                       output_size=shape.output_size)

    # -- transfers ----------------------------------------------------------
    def _build_transfer(self, spec: _ActorSpec, sizing: _Sizing,
                        name: str) -> Segment:
        pattern = spec.pattern
        inv_fn = sizing.invocations(spec.filters[-1])
        trip = RateExpr(pattern.trip)

        def iterations(params) -> int:
            return inv_fn(params) * trip.evaluate(params)

        shape = MapShape(iterations, 1, 1)
        plan = MapPlan(self.spec, name, shape, [N.Var("_x0")],
                       layout=LAYOUT_INTERLEAVED, threads=self.options.threads,
                       gather=pattern.mapping)
        plan.strategy = "transfer.permute"
        return Segment(name=name, kind="transfer", plans=[plan],
                       input_size=shape.input_size,
                       output_size=shape.output_size)

    # -- stencils ------------------------------------------------------------
    def _build_stencil(self, spec: _ActorSpec, sizing: _Sizing,
                       name: str) -> Segment:
        pattern = spec.pattern
        filt = spec.filters[-1]
        inv_fn = sizing.invocations(filt)
        trip = RateExpr(pattern.trip)

        def check_single(params):
            if inv_fn(params) != 1:
                raise CompileError(
                    f"stencil segment {name!r} requires one invocation per "
                    "execution (got multiple steady states)")

        if pattern.width_param:
            width_param = pattern.width_param

            def width(params):
                check_single(params)
                return int(params[width_param])

            def height(params):
                return trip.evaluate(params) // int(params[width_param])
        else:
            def width(params):
                check_single(params)
                return trip.evaluate(params)

            def height(params):
                return 1

        shape = StencilShape(width, height)
        plans: List = [NaiveStencilPlan(self.spec, name, shape, pattern,
                                        self.options.threads)]
        if self.options.memory:
            plans.append(TiledStencilPlan(self.spec, name, shape, pattern,
                                          self.options.threads))
            if pattern.is_2d:
                # Fixed-geometry super-tile variants: each bakes one tile
                # shape into its kernel, making tile geometry a selectable
                # dimension (wide flat tiles for wide thin grids, square
                # tiles for square ones) instead of a per-call recomputed
                # heuristic.  The adaptive plan above stays as the
                # everything-else fallback.
                for tile_w, tile_h in ((32, 4), (32, 16), (128, 4)):
                    fixed = TiledStencilPlan(self.spec, name, shape, pattern,
                                             self.options.threads,
                                             tile=(tile_w, tile_h))
                    fixed.strategy = (f"stencil.super_tile"
                                      f"@{tile_w}x{tile_h}")
                    plans.append(fixed)
        return Segment(name=name, kind="stencil", plans=plans,
                       input_size=lambda p: shape.size(p),
                       output_size=lambda p: shape.size(p))

    # -- generic fallback ----------------------------------------------------
    def _build_generic(self, spec: _ActorSpec, sizing: _Sizing,
                       name: str) -> Segment:
        filt = spec.filters[-1]
        inv_fn = sizing.invocations(filt)
        pop = lambda p: filt.pop.evaluate(p)      # noqa: E731
        push = lambda p: filt.push.evaluate(p)    # noqa: E731
        peek = lambda p: filt.peek.evaluate(p)    # noqa: E731
        shape = GenericShape(inv_fn, pop, push, peek)
        arrays_fn = self._arrays_fn(self._consts(spec.filters))
        plans: List = [
            GenericActorPlan(self.spec, name, filt.work, shape, arrays_fn,
                             LAYOUT_INTERLEAVED, self.options.threads),
            CpuPlan(self.spec, name, filt.work, inv_fn, pop, push),
        ]
        if self.options.memory:
            plans.append(GenericActorPlan(
                self.spec, name, filt.work, shape, arrays_fn,
                LAYOUT_RESTRUCTURED, self.options.threads))
        return Segment(
            name=name, kind="generic", plans=plans,
            input_size=lambda p: shape.invocations(p) * shape.pop(p),
            output_size=lambda p: shape.invocations(p) * shape.push(p))

    def _build_generic_chain(self, spec: _ActorSpec, sizing: _Sizing,
                             name: str) -> Segment:
        from .plans.genericplan import FusedGenericPlan
        first, last = spec.filters[0], spec.filters[-1]
        inv_fn = sizing.invocations(first)
        shape = GenericShape(inv_fn,
                             lambda p: first.pop.evaluate(p),
                             lambda p: last.push.evaluate(p),
                             lambda p: first.peek.evaluate(p))
        arrays_fn = self._arrays_fn(self._consts(spec.filters))
        fused = FusedGenericPlan(self.spec, name,
                                 [f.work for f in spec.filters], shape,
                                 arrays_fn, self.options.threads)
        plans: List = [fused]
        from .plans.cpusubgraph import CpuGraphPlan
        plans.append(CpuGraphPlan(self.spec, name,
                                  Pipeline(*spec.filters),
                                  self.options.threads))
        return Segment(
            name=name, kind="generic_chain", plans=plans,
            input_size=lambda p: shape.invocations(p) * shape.pop(p),
            output_size=lambda p: shape.invocations(p) * shape.push(p))

    def _build_stateful(self, spec: _ActorSpec, sizing: _Sizing,
                        name: str) -> Segment:
        filt = spec.filters[-1]
        inv_fn = sizing.invocations(filt)
        pop = lambda p: filt.pop.evaluate(p)      # noqa: E731
        push = lambda p: filt.push.evaluate(p)    # noqa: E731
        plan = CpuPlan(self.spec, name, filt.work, inv_fn, pop, push,
                       state=filt.state)
        return Segment(
            name=name, kind="stateful", plans=[plan],
            input_size=lambda p: inv_fn(p) * pop(p),
            output_size=lambda p: inv_fn(p) * push(p))

    # -- duplicate split-joins -------------------------------------------
    def _build_multi_reduce(self, spec: _ActorSpec, sizing: _Sizing,
                            name: str) -> Segment:
        branches = spec.branches
        first_filter = branches[0].filters[-1]
        narrays_fn = sizing.invocations(first_filter)
        trips = [RateExpr(b.pattern.trip) for b in branches]
        k = branches[0].pattern.pops_per_iter
        shape = ReduceShape(narrays_fn, trips[0].evaluate, k)
        reducer_fns = [self._reducer_factory(b) for b in branches]
        outputs_per_branch = [fn(None).outputs_per_array
                              for fn in reducer_fns]
        threads = self.options.threads

        branch_plans = []
        for b, fn in zip(branches, reducer_fns):
            bshape = ReduceShape(narrays_fn, RateExpr(b.pattern.trip).evaluate,
                                 b.pattern.pops_per_iter)
            if self.options.segmentation:
                branch_plans.append(ReduceTwoKernelPlan(
                    self.spec, f"{name}_{b.filters[-1].name}", bshape, fn,
                    LAYOUT_ROWS, threads))
            else:
                branch_plans.append(ReduceSingleKernelPlan(
                    self.spec, f"{name}_{b.filters[-1].name}", bshape, fn,
                    LAYOUT_ROWS, threads))
        plans: List = [SeparateReducePlan(self.spec, name, branch_plans,
                                          outputs_per_branch, narrays_fn)]
        if self.options.integration:
            plans.append(HorizontalReducePlan(self.spec, name, shape,
                                              reducer_fns, threads,
                                              two_kernel=False))
            if self.options.segmentation:
                plans.append(HorizontalReducePlan(self.spec, name, shape,
                                                  reducer_fns, threads,
                                                  two_kernel=True))
        per_array = sum(outputs_per_branch)
        return Segment(
            name=name, kind="multi_reduce", plans=plans,
            input_size=lambda p: shape.narrays(p) * shape.nelements(p),
            output_size=lambda p: shape.narrays(p) * per_array)

    # -- CPU subgraph fallback ----------------------------------------------
    def _build_cpu(self, spec: _ActorSpec, sizing: _Sizing,
                   name: str) -> Segment:
        from .plans.cpusubgraph import CpuGraphPlan
        plan = CpuGraphPlan(self.spec, name, spec.stream,
                            self.options.threads)
        return Segment(name=name, kind="cpu", plans=[plan],
                       input_size=plan.expected_input_size,
                       output_size=plan.output_size)
