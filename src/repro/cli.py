"""Command-line interface for the reproduction harness.

::

    python -m repro figures                # list reproducible figures
    python -m repro fig01 [--target ...]   # print one figure's table
    python -m repro all                    # print every table
    python -m repro apps                   # list benchmark applications
    python -m repro describe tmv           # compiled variants + CUDA text
    python -m repro calibration [sdot]     # feedback recovery, verdict OK/FAIL
    python -m repro health                 # fault-tolerance self-check
    python -m repro serve-bench            # front-door load benchmark
    python -m repro bundle save tmv --out tmv.bundle.json
    python -m repro bundle load tmv.bundle.json   # zero-cold-start check
    python -m repro bundle inspect tmv.bundle.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import api, apps
from .experiments import (code_size, fig01, fig09, fig10, fig11, fig12,
                          multiaxis, placement, sec53)
from .gpu import TARGETS, get_target

#: app name -> (StreamProgram builder, description); shared registry.
_APP_BUILDERS = apps.BUILDERS


def _figure_runners(spec):
    return {
        "fig01": lambda: print(fig01.run(spec).render()),
        "fig09": lambda: [print(r.render())
                          for r in fig09.run(spec).values()],
        "fig10": lambda: [print(r.render())
                          for r in fig10.run(spec).values()],
        "fig11": lambda: print(fig11.run().render()),
        "fig12": lambda: print(fig12.run().render()),
        "sec53": lambda: print(sec53.run(spec).render()),
        "code_size": lambda: print(code_size.run(spec).render()),
        "multiaxis": lambda: print(multiaxis.run(spec).render()),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptic (PLDI 2012) reproduction harness")
    parser.add_argument("command",
                        help="figures | apps | all | report | describe | "
                             "calibration | health | serve-bench | bundle | "
                             "placement | fig01 | fig09 | fig10 | fig11 | "
                             "fig12 | sec53 | code_size | multiaxis")
    parser.add_argument("name", nargs="?",
                        help="application name (describe/calibration) or "
                             "bundle action (save/load/inspect)")
    parser.add_argument("path", nargs="?",
                        help="with bundle: app name (save) or bundle file "
                             "(load/inspect)")
    parser.add_argument("--out", default=None,
                        help="with bundle save: output path "
                             "(default <app>.bundle.json)")
    parser.add_argument("--force", action="store_true",
                        help="with bundle load: relax the repro-version "
                             "check")
    parser.add_argument("--bias", type=float, default=3.0,
                        help="with calibration: injected model bias factor")
    parser.add_argument("--target", default="c2050",
                        help=f"GPU target: {sorted(TARGETS)}")
    parser.add_argument("--cuda", action="store_true",
                        help="with describe: also print generated CUDA")
    parser.add_argument("--ranges", action="store_true",
                        help="with describe: print per-variant operating "
                             "input ranges")
    parser.add_argument("--tables", action="store_true",
                        help="with describe: print baked dispatch tables "
                             "(one region map per segment)")
    parser.add_argument("--elements", type=int, default=None,
                        help="with serve-bench: traffic shape-sweep element "
                             "budget (default 256)")
    parser.add_argument("--reps", type=int, default=None,
                        help="with serve-bench: requests per shape "
                             "(default 16)")
    parser.add_argument("--max-batch", type=int, default=None,
                        help="with serve-bench: coalescing bound "
                             "(default: requests per shape)")
    parser.add_argument("--seed", type=int, default=None,
                        help="with serve-bench: traffic seed (default 0)")
    args = parser.parse_args(argv)

    spec = get_target(args.target)
    runners = _figure_runners(spec)

    if args.command == "figures":
        for name in runners:
            print(name)
        return 0
    if args.command == "apps":
        for name, (_builder, description) in _APP_BUILDERS.items():
            print(f"{name:16s} {description}")
        return 0
    if args.command == "all":
        for name, runner in runners.items():
            print(f"\n##### {name} #####")
            runner()
        return 0
    if args.command == "report":
        print(f"# Adaptic reproduction report — {spec.name}\n")
        print("Regenerated by `python -m repro report`.  See EXPERIMENTS.md"
              " for the paper-vs-measured commentary.\n")
        for name, runner in runners.items():
            print(f"\n## {name}\n\n```")
            runner()
            print("```")
        from .experiments import model_validation
        print("\n## model validation\n\n```")
        print(model_validation.render(model_validation.run(spec)))
        print("```")
        return 0
    if args.command == "describe":
        if not args.name or args.name not in _APP_BUILDERS:
            parser.error(
                f"describe needs an app name from: "
                f"{sorted(_APP_BUILDERS)}")
        builder, _description = _APP_BUILDERS[args.name]
        pins = apps.PINS.get(args.name)
        compiled = api.compile(builder(), arch=spec)
        if args.tables:
            compiled.prune_variants(extra_params=pins)
        print(compiled.describe(tables=args.tables))
        if args.ranges:
            print()
            try:
                print(compiled.range_report(extra_params=pins))
            except Exception as exc:  # range sweep may need more params
                print(f"(range report unavailable: {exc})")
        if args.cuda:
            print()
            print(compiled.cuda_source())
        return 0
    if args.command == "calibration":
        reductions = ("isamax", "snrm2", "sasum", "sdot")
        name = args.name or "sdot"
        if name == "tmv":
            report = fig10.calibration_report(spec=spec, bias=args.bias)
        elif name == "imagepipe":
            report = multiaxis.calibration_report(spec=spec, bias=args.bias)
        elif name in reductions:
            report = fig09.calibration_report(name, spec=spec,
                                              bias=args.bias)
        else:
            parser.error(f"calibration needs an app name from: "
                         f"{sorted(reductions + ('tmv', 'imagepipe'))}")
        print(f"# feedback-directed selection recovery — {name} "
              f"on {spec.name}")
        for key, value in report.items():
            print(f"{key:16s} {value}")
        recovered = report["accuracy_after"] == 1.0
        print(f"{'verdict':16s} {'OK' if recovered else 'FAIL'}")
        return 0 if recovered else 1
    if args.command == "health":
        return _health(spec)
    if args.command == "placement":
        return _placement(spec)
    if args.command == "serve-bench":
        return _serve_bench(spec, args)
    if args.command == "bundle":
        return _bundle(parser, args, spec)
    if args.command in runners:
        runners[args.command]()
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2


def _bundle(parser, args, spec) -> int:
    """``bundle {save,load,inspect}`` — zero-cold-start artifact store.

    ``save`` compiles + prunes an app and writes its bundle (for
    ``tmv``, the fig10 program, with the sweep ``load`` serves in its
    meta).  ``load`` reconstructs the program in *this* process — run
    it from a fresh interpreter to demonstrate zero-cold-start — and
    for tmv bundles serves the sweep, then serves it again after
    ``clear_warm_caches()``, and fails unless the first sweep ran no
    prune or bake and made the second one's model evaluations,
    permutation builds and expression compiles, with bit-identical
    outputs.  ``inspect`` prints the bundle's invalidation key and
    contents without applying it.
    """
    from .artifacts import ArtifactBundle

    action = args.name
    if action == "save":
        app = args.path
        if not app or app not in _APP_BUILDERS:
            parser.error(f"bundle save needs an app name from: "
                         f"{sorted(_APP_BUILDERS)}")
        out = args.out or f"{app}.bundle.json"
        if app == "tmv":
            bundle = fig10.save_bundle(out, spec=spec)
        else:
            compiled = api.compile(_APP_BUILDERS[app][0](), arch=spec)
            compiled.prune_variants(extra_params=apps.PINS.get(app))
            bundle = compiled.save_bundle(out, meta={"app": app})
        print(f"saved {out}")
        print(bundle.inspect())
        return 0
    if action in ("load", "inspect"):
        if not args.path:
            parser.error(f"bundle {action} needs a bundle file path")
        if action == "inspect":
            print(ArtifactBundle.load(args.path).inspect())
            return 0
        bundle = ArtifactBundle.load(args.path)
        if bundle.meta.get("app") == "tmv":
            report = fig10.bundle_verify(
                args.path,
                total_elements=int(bundle.meta.get("total_elements",
                                                   1 << 10)),
                seed=int(bundle.meta.get("seed", 0)))
            print(f"# zero-cold-start check — tmv from {args.path}")
            print(f"{'shapes':16s} {report['shapes']}")
            print(f"{'':16s} {'loaded':>8s} {'cleared':>8s}")
            for key, value in report["loaded"].items():
                print(f"{key:16s} {value:8d} {report['cleared'][key]:8d}")
            print(f"{'identical':16s} {report['identical']}")
            print(f"{'checksum':16s} {report['checksum']}")
            print(f"{'verdict':16s} {'OK' if report['ok'] else 'FAIL'}")
            return 0 if report["ok"] else 1
        compiled = api.load_bundle(args.path, force=args.force)
        print(f"loaded {args.path} into a warm "
              f"{compiled.program.name!r} program "
              f"({compiled.variant_count()} variant(s))")
        return 0
    parser.error("bundle needs an action: save | load | inspect")
    return 2


def _placement(spec) -> int:
    """``placement`` — heterogeneous CPU/GPU placement self-check.

    Sweeps image shapes through the placement-compiled pipeline and
    prints, per shape, where each segment ran and the measured wall of
    automatic placement vs the same program pinned all-GPU.  Exits
    nonzero unless at least one shape's CPU-placed chain beat all-GPU,
    the baked auto path answered with zero runtime model evaluations,
    and every pair of outputs was bit-identical.
    """
    report = placement.placement_report(spec=spec)
    print(f"# heterogeneous placement — imagepipe on {spec.name}")
    print(f"{'shape':>10s} {'placements':40s} {'auto_us':>10s} "
          f"{'gpu_us':>10s} {'speedup':>8s} {'identical':>9s}")
    for row in report["rows"]:
        print(f"{row['shape']:>10s} {row['placements']:40s} "
              f"{row['auto_wall_us']:10.1f} {row['gpu_wall_us']:10.1f} "
              f"{row['auto_speedup']:8.2f} {str(row['bit_identical']):>9s}")
    print(f"CPU-placed wins    {report['cpu_win_shapes'] or 'none'}")
    print(f"runtime model evals {report['runtime_evals']}")
    print(f"outputs identical  {report['bit_identical']}")
    print(f"verdict            {'OK' if report['ok'] else 'FAIL'}")
    return 0 if report["ok"] else 1


def _serve_bench(spec, args) -> int:
    """``serve-bench`` — deterministic front-door load benchmark.

    Replays a seeded mixed-shape TMV traffic mix through the asyncio
    front door and through per-request serial ``run()``, printing
    throughput, p50/p99 latency, the dispatch/batch shape, and the
    bit-identity verdict against direct ``run_many``.  Exits nonzero
    when any served output differs from the reference.
    """
    from .serve import ServeConfig, TrafficSpec, render, run_benchmark

    traffic = TrafficSpec()
    if args.elements is not None:
        traffic.total_elements = args.elements
    if args.reps is not None:
        traffic.requests_per_shape = args.reps
    if args.seed is not None:
        traffic.seed = args.seed
    config = None
    if args.max_batch is not None:
        n_requests = (traffic.requests_per_shape
                      * len(apps.tmv.shape_sweep(traffic.total_elements)))
        config = ServeConfig(
            max_batch=args.max_batch or traffic.requests_per_shape,
            fuse_axis="rows", max_queue_depth=n_requests + 1,
            options=api.RunOptions(exec_mode=api.ExecMode.VECTORIZED))
    report = run_benchmark(spec=spec, traffic=traffic, config=config)
    print(f"# serving front door vs serial run() — tmv on {spec.name}")
    print(render(report))
    return 0 if report["bit_identical"] else 1


def _health(spec, total_elements: int = 1 << 10) -> int:
    """Fault-tolerance self-check over a fig10-style TMV shape sweep.

    Serves the sweep twice — once clean, once with a seeded injector
    killing the clean run's first-selected variant — and checks that the
    degraded batch still produces bit-identical outputs while the
    robustness counters match the injection plan exactly.
    """
    import numpy as np
    from . import apps as apps_mod
    from .faults import FaultInjector, FaultPlan

    shapes = apps_mod.tmv.shape_sweep(total_elements)
    inputs, params_list = [], []
    for rows, cols in shapes:
        matrix, _vec, params = apps_mod.tmv.make_input(rows, cols)
        inputs.append(matrix)
        params_list.append(params)

    clean = api.compile(apps_mod.tmv.build(), arch=spec)
    clean_results = clean.run_many(inputs, params_list)
    victim = clean_results[0].selections[0].strategy

    injector = FaultInjector(
        [FaultPlan(family=victim, kind="raise", nth=1, count=1)], seed=0)
    guarded = api.compile(apps_mod.tmv.build(), arch=spec,
                          options=api.AdapticOptions(faults=injector))
    injected_results = guarded.run_many(inputs, params_list)

    identical = all(
        np.array_equal(a.output, b.output)
        for a, b in zip(clean_results, injected_results))
    stats = guarded.stats
    expected = dict(faults_injected=1, retries=1, quarantines=1,
                    degraded_runs=1)
    counters_ok = all(getattr(stats, name) == value
                      for name, value in expected.items())

    print(f"# fault-tolerance health — tmv on {spec.name} "
          f"({len(shapes)} shapes)")
    print(f"victim variant    {victim}")
    print(f"outputs identical {identical}")
    for name, value in expected.items():
        print(f"{name:17s} {getattr(stats, name)} (expected {value})")
    print(f"quarantined       {guarded.calibration.quarantined()}")
    healthy = identical and counters_ok
    print(f"verdict           {'OK' if healthy else 'FAIL'}")
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
