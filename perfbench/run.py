"""The benchmark's one command: run one workload and print its metrics.

    python3 perfbench/run.py --workload tmv-sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports the program from
that checkout's ``src/`` and exits non-zero, printing no result, when
the program is not there.  The workload is set up several times (the
median is ``setup_s``), then one untraced pass of ``--seconds`` gives
the end-to-end metrics.  ``--trace 1`` splits ``--seconds`` between an
untraced and a traced pass, whose spans and stage reports give the
per-layer metrics, and adds a cProfile pass of its own.  A pass ends at
the first whole deck of requests after its time is up.  Every output is
checked against the app's numpy reference outside the timed region, and
a seeded few are bit-compared with the coroutine oracle at the end.
``python3 perfbench/report.py BASE NEW`` compares two sets of result
rows.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``, the latter holding BENCHMARK.json's
``end_to_end`` metrics (``--trace 0``) or its ``per_layer`` metrics
(``--trace 1``).  The command exits 1 when an output was wrong, a
request failed or the modeled clock drifted.  Result rows in the schema
of ``report.py``, the spans as JSON lines, the profile and the served
workload's artifact bundle go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# The output checks call BLAS; helper threads it would start spin on the
# host's few cores while the next request is being timed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def load_program():
    """Import the benchmark modules and, with them, the program from
    ``SRC``; exit non-zero when it is missing or comes from elsewhere."""
    sys.path[:0] = [path for path in (SRC, HERE) if path not in sys.path]
    try:
        import measure
        import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported the program from {repro.__file__}, "
                 f"not from {SRC}")
    return measure, workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save-bundle", metavar="PATH",
                        help="save serve-tmv's artifact bundle and exit; "
                             "its set-up runs this in a process of its own")
    args = parser.parse_args(argv)
    # Run on one CPU.  A served run's event-loop and dispatch threads
    # otherwise hand the GIL back and forth across CPUs, and on a host
    # whose CPUs are shared with other machines every slowdown of either
    # CPU stalls both threads.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    measure, workloads = load_program()
    import report
    if args.save_bundle:
        workloads.ServeTmv.save_bundle(args.save_bundle)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    os.makedirs(OUT, exist_ok=True)
    prefix = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}")

    bench = workloads.WORKLOADS[args.workload]()
    bindings, deck = bench.inputs(args.seed)
    bench.prepare(OUT)
    trace = workloads.Trace()
    program, setup_seconds = measure.set_up(bench, bindings, trace)
    keep = workloads.oracle_keys(bindings, args.seed)
    # A traced run splits its time between the untraced pass, which
    # trace.overhead_pct compares against, and the traced one.
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = measure.measured_pass(bench, program, deck, args.seed,
                                     seconds, keep=keep)
    passes = [untraced]
    drift = untraced.modeled_drift
    layer_values = {}
    profile_lines = []
    if args.trace:
        traced = measure.measured_pass(bench, program, deck, args.seed,
                                       seconds, trace=trace)
        passes.append(traced)
        # One seed's sequence must price the same in every pass.
        if measure.modeled_mean(traced) != measure.modeled_mean(untraced):
            drift += 1
        layer_values = measure.per_layer(bench, program, trace, traced,
                                         untraced, deck)
        trace.dump(prefix + ".spans.jsonl")
        profiled = max(1.0, args.seconds / 4)
        profile_lines = measure.profile(bench, program, deck, args.seed,
                                        profiled, prefix + ".profile.txt")
    untraced.wrong += workloads.oracle_mismatches(program.compiled,
                                                  untraced.kept)
    values = measure.end_to_end(untraced, setup_seconds)
    values.update(layer_values)

    samples = {name: len(untraced.latencies) for name in values}
    samples.update({name: len(passes[-1].records) for name in layer_values})
    samples["setup_s"] = len(setup_seconds)
    rows = report.rows(args.workload, args.seed, values, samples,
                       report.host_info(ROOT))
    with open(prefix + ".rows.json", "w") as handle:
        json.dump(rows, handle, indent=1)
    print(report.render(args.workload, values))
    for line in profile_lines:
        print(f"profile  {line}")

    failed = sum(p.errors for p in passes)
    correct = failed == 0 and drift == 0
    if drift:
        print(f"modeled clock drifted on {drift} request(s)", file=sys.stderr)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
