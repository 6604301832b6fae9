"""Execution schedules: one hop decision, priced exactly as it runs.

Every run builds one schedule for its selection: the executor runs its
steps and ``transfer_seconds`` sums its hop steps.  The option lattice
(program x exec mode x input location x placement pin) checks, on a fresh
device per point, that outputs stay bit-identical and that the priced
transfers equal the recorded ones exactly.  The remaining tests pin
the plans' warm caches staying bounded under per-call array params, the
owned device's transfer log holding one run's records, the placement
pin in failure recovery, and feedback
probes that fail without failing the request they probed for.
"""

import gc
import itertools
import weakref

import numpy as np
import pytest

from repro import Filter, Pipeline, StreamProgram, api
from repro.apps import imagepipe, tmv
from repro.compiler.exprgen import COMPILE_COUNTER, SOURCE_REGISTRY
from repro.compiler.plans.base import WARM_ARRAY_ENTRIES
from repro.compiler.runtime import InputLocation
from repro.faults import FaultInjector, FaultPlan
from repro.gpu import Device, ExecMode
from repro.perfmodel import size_bucket

from workloads import SCALE_SRC, SQUARE_SRC, SUM_SRC

#: Narrowed imagepipe box (keeps the placement sweeps fast).
RANGES = {"width": (32, 512), "height": (32, 512)}


@pytest.fixture(autouse=True)
def _isolated_source_registry():
    """Drop bundle-carried sources after every test (see test_multiaxis)."""
    yield
    SOURCE_REGISTRY.clear_loaded()


def _chain_program():
    return StreamProgram(
        Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                 Filter(SQUARE_SRC, pop="n", push="n"),
                 Filter(SUM_SRC, pop="n", push=1)),
        params=["n", "a"], input_size="n", input_ranges={"n": (16, 1 << 16)})


def _imagepipe(placement):
    return api.compile(imagepipe.build(input_ranges=RANGES),
                       options=api.AdapticOptions(prune=True,
                                                  placement=placement))


def _chain(placement):
    """Without integration each stage is its own segment, so the chain's
    schedule has a hop decision at every segment boundary."""
    return api.compile(_chain_program(), options=api.AdapticOptions(
        integration=False, placement=placement))


def _image_input():
    data, params = imagepipe.make_input(32, 32,
                                        rng=np.random.default_rng(5))
    return data, params


def _chain_input():
    data = np.random.default_rng(6).standard_normal(256)
    return data, {"n": 256, "a": 1.75}


def _tmv_input():
    matrix, _vec, params = tmv.make_input(64, 32,
                                          rng=np.random.default_rng(7))
    return matrix, params


PROGRAMS = {
    "imagepipe": (lambda: _imagepipe(False), _image_input),
    "imagepipe-placed": (lambda: _imagepipe(True), _image_input),
    "chain": (lambda: _chain(False), _chain_input),
    "chain-placed": (lambda: _chain(True), _chain_input),
    "tmv-pruned": (lambda: api.compile(
        tmv.build(), options=api.AdapticOptions(prune=True)), _tmv_input),
}
MODES = (ExecMode.REFERENCE, ExecMode.VECTORIZED)
LOCATIONS = (InputLocation.HOST, InputLocation.DEVICE)
PINS = ("auto", "gpu", "cpu")


@pytest.fixture(scope="module")
def lattice_programs():
    """Program name -> (compiled, data, params, first lattice output)."""
    built = {}
    for name, (compile_fn, input_fn) in PROGRAMS.items():
        compiled = compile_fn()
        data, params = input_fn()
        built[name] = [compiled, data, params, None]
    return built


def _expected_hops(compiled, result, params, location):
    """The hop rule restated: a hop wherever the data changes sides
    (entering on the input's side), plus the exit D2H off the GPU."""
    itemsize = compiled.wire_dtype.itemsize
    placed = compiled.options.placement
    sides = [compiled.segments[i].plan_named(sel.strategy).placement
             if placed else "gpu"
             for i, sel in enumerate(result.selections)]
    side = "cpu" if location is InputLocation.HOST else "gpu"
    hops = []
    for segment, target in zip(compiled.segments, sides):
        if target != side:
            hops.append(("h2d" if target == "gpu" else "d2h",
                         segment.input_size(params) * itemsize))
            side = target
    if side == "gpu":
        hops.append(("d2h",
                     compiled.segments[-1].output_size(params) * itemsize))
    return hops


@pytest.mark.parametrize(
    "name,mode,location,pin",
    list(itertools.product(PROGRAMS, MODES, LOCATIONS, PINS)),
    ids=lambda value: str(getattr(value, "value", value)))
def test_option_lattice(lattice_programs, name, mode, location, pin):
    entry = lattice_programs[name]
    compiled, data, params = entry[:3]
    device = Device(compiled.spec, exec_mode=mode)
    result = compiled.run(data, params, device=device,
                          options=api.RunOptions(exec_mode=mode,
                                                 location=location,
                                                 placement=pin))
    if entry[3] is None:
        entry[3] = result.output.tobytes()
    assert result.output.tobytes() == entry[3]
    assert result.transfer_seconds == device.transfer_seconds
    recorded = [(t.direction, t.nbytes) for t in device.transfers]
    plans = [compiled.segments[i].plan_named(sel.strategy)
             for i, sel in enumerate(result.selections)]
    steps = compiled._steps(params, location, compiled._sides(plans))
    assert recorded == [(step.kind, step.nbytes) for step in steps
                        if step.kind in ("h2d", "d2h")]
    assert recorded == _expected_hops(compiled, result, params, location)


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
def test_fresh_array_params_leave_no_warm_state_behind(mode):
    """A binding whose array params change every call (a served request's
    own vector, a solver's iterate) leaves each plan at most
    ``WARM_ARRAY_ENTRIES`` warm entries, evicted entries let their
    arrays go, and a fixed binding still runs without compiling."""
    compiled = api.compile(tmv.build(),
                           options=api.AdapticOptions(prune=True))
    matrix, vec, params = tmv.make_input(64, 32,
                                         rng=np.random.default_rng(8))
    rng = np.random.default_rng(9)
    options = api.RunOptions(exec_mode=mode)
    plans = [plan for segment in compiled.segments
             for plan in segment.plans]

    def run_fresh():
        """Three fresh bindings: one run and a two-item batch."""
        vecs = [rng.standard_normal(32) for _ in range(3)]
        result = compiled.run(matrix, {**params, "vec": vecs[0]},
                              options=options)
        outcome = compiled.run_batch(
            [matrix] * 2, [{**params, "vec": vec} for vec in vecs[1:]],
            options=options)
        assert not outcome.errors
        for output, vec in zip([result.output] + [r.output for r in
                                                  outcome.results], vecs):
            assert np.allclose(output, tmv.reference(matrix, vec, 64, 32))
        return [weakref.ref(vec) for vec in vecs]

    def sizes():
        """Per plan: every warm entry, and those keyed by array ids."""
        return [(len(plan._warm_cache),
                 sum(1 for key in plan._warm_cache
                     if key[0] != "perm" and key[-1]))
                for plan in plans]

    first = run_fresh()
    rounds = WARM_ARRAY_ENTRIES // 3 + 1     # more bindings than the cap
    for _ in range(rounds):
        run_fresh()
    full = sizes()
    assert max(keyed for _, keyed in full) == WARM_ARRAY_ENTRIES
    for _ in range(rounds):
        run_fresh()
    assert sizes() == full
    gc.collect()
    assert all(ref() is None for ref in first)

    fixed = {**params, "vec": vec}
    compiled.run(matrix, fixed, options=options)
    before = COMPILE_COUNTER.snapshot()
    compiled.run(matrix, fixed, options=options)
    assert COMPILE_COUNTER.since(before).total == 0


def test_owned_device_transfer_log_stays_bounded():
    """The program-owned device keeps only the current run's transfers,
    so a long-lived server does not grow it by two records a request."""
    compiled = api.compile(tmv.build())
    matrix, params = _tmv_input()
    options = api.RunOptions(exec_mode=ExecMode.VECTORIZED)
    compiled.run(matrix, params, options=options)
    device = compiled._run_devices[ExecMode.VECTORIZED]
    one_run = len(device.transfers)
    assert one_run == 2                 # the input's H2D, the output's D2H
    for _ in range(199):
        compiled.run(matrix, params, options=options)
    assert len(device.transfers) == one_run
    outcome = compiled.run_batch([matrix] * 50, params, options=options)
    assert outcome.ok
    assert len(device.transfers) == one_run


# ----------------------------------------------------------------------
# Placement pin in failure recovery
# ----------------------------------------------------------------------
def test_recovery_honors_placement_pin():
    injector = FaultInjector(
        [FaultPlan(family="map.grid_stride", kind="raise", nth=1,
                   count=1)], seed=0)
    guarded = api.compile(
        imagepipe.build(input_ranges=RANGES),
        options=api.AdapticOptions(prune=True, placement=True,
                                   faults=injector))
    data, params = _image_input()
    result = guarded.run(data, params,
                         options=api.RunOptions(placement="gpu"))
    assert guarded.stats.retries == 1
    for index, sel in enumerate(result.selections):
        assert guarded.segments[index].plan_named(
            sel.strategy).placement == "gpu"
    assert result.selections[0].strategy != "map.grid_stride"
    assert np.array_equal(result.output,
                          imagepipe.reference(data, 32, 32))


# ----------------------------------------------------------------------
# A failing feedback probe
# ----------------------------------------------------------------------
def _probe_failing_program():
    injector = FaultInjector(
        [FaultPlan(family="map.grid_stride", kind="raise", count=100)],
        seed=0)
    return api.compile(
        imagepipe.build(input_ranges=RANGES),
        options=api.AdapticOptions(prune=True, placement=True,
                                   faults=injector))


def test_failed_probe_does_not_fail_run():
    compiled = _probe_failing_program()
    data, params = _image_input()
    result = compiled.run(data, params,
                          options=api.RunOptions(feedback=True))
    assert np.array_equal(result.output, imagepipe.reference(data, 32, 32))
    stats = compiled.stats
    assert stats.probe_runs >= 1
    assert stats.faults_injected >= 1
    assert stats.quarantines >= 1
    assert compiled.calibration.is_quarantined("map.grid_stride",
                                               size_bucket(params))


def test_failed_probe_does_not_fail_batch():
    compiled = _probe_failing_program()
    data, params = _image_input()
    outcome = compiled.run_batch([data] * 3, params,
                                 options=api.RunOptions(feedback=True))
    assert isinstance(outcome, api.BatchOutcome)
    assert not outcome.errors
    expected = imagepipe.reference(data, 32, 32)
    assert all(np.array_equal(result.output, expected)
               for result in outcome.results)
    assert compiled.stats.quarantines >= 1
