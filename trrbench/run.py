"""Run one workload of the trr benchmark and print its result.

    python3 trrbench/run.py --workload relay_small --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` beside this directory.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every layer is
wrapped and the metrics are the per-layer ones, and the spans are
written to ``trrbench/out/``.  A full record of each run, problems
included, goes to ``trrbench/out/`` as well.
"""

import argparse
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
]


def time_metrics(run, scaled: bool) -> dict[str, float]:
    """setup_s, op_p50_ms and ops_per_s, scaled to the reference speed
    phase by phase (see workloads.py) or in plain wall time."""
    speed = run.speed if scaled else [1.0] * len(run.speed)
    setup_speed = run.setup_speed if scaled else [1.0] * len(run.setup_s)
    ok = [op for op in run.ops if op.ok] or run.ops
    timed_s = 0.0
    for phase, factor in enumerate(speed):
        ops = [op for op in run.ops if op.phase == phase]
        if ops:
            timed_s += (max(op.end for op in ops)
                        - min(op.start for op in ops)) * factor
    return {
        "setup_s": statistics.median(
            t * f for t, f in zip(run.setup_s, setup_speed)),
        "op_p50_ms": statistics.median(op.ms * speed[op.phase] for op in ok),
        "ops_per_s": sum(op.ok for op in run.ops) / timed_s,
    }


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "trr", "__init__.py")):
        print(f"error: no trr package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    import spans
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workdir = f"{stem}-tmp{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    try:
        run = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, workdir, tracer, layers)
    finally:
        workloads.cleanup(workdir)

    # ru_maxrss is in KiB on Linux
    e2e = {**time_metrics(run, scaled=True), "peak_rss_mib":
           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        values = layers.per_layer_metrics(tracer, run)
        units = dict(layers.PER_LAYER)
        tracer.dump(stem + "-spans.jsonl")
    else:
        values, units = e2e, dict(END_TO_END)
    failed = sum(not op.ok for op in run.ops)
    result = {
        "correct": not run.problems,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "end_to_end": e2e,
                   "unscaled": {**time_metrics(run, scaled=False),
                                "speed": statistics.median(run.speed)},
                   "setup_s": run.setup_s, "problems": run.problems,
                   "python": sys.version.split()[0], "nproc": os.cpu_count()},
                  fh, indent=1)
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'attempted':40s} {len(run.ops):14d}\n{'failed':40s} {failed:14d}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
