"""Run the benchmark several times and show how steady each metric is.

    python3 trrbench/steadiness.py --runs 10 [--workloads relay_small,mc_grid]
                                   [--first-seed 1] [--trace] [--write-bounds]

Each run uses its own seed.  For every workload and end-to-end metric it
prints the median, the first and third quartiles, and the spread (the
distance between the quartiles as a share of the median) next to the
metric's bound in BENCHMARK.json, plus the share of failed operations.
``--trace`` also makes one traced run per workload and prints how much
slower its operations were than the untraced median: the tracing
overhead.  ``--write-bounds`` sets each end-to-end bound in
BENCHMARK.json from the spreads seen (see bound_for).  A summary is
written to trrbench/out/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT = os.path.join(HERE, "out")

MAX_BOUND = 0.25
MIN_BOUND = 0.10


def bound_for(name: str, spreads: list[float]) -> float:
    """Three times the widest spread seen, rounded up to 0.05, kept within
    [MIN_BOUND, MAX_BOUND]; setup_s always gets the widest bound, since
    its spread is not gated and shared machines vary most there."""
    if name == "setup_s":
        return MAX_BOUND
    wanted = math.ceil(3 * max(spreads) * 20) / 20
    return min(MAX_BOUND, max(MIN_BOUND, wanted))


def run_once(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", help="comma list; default all")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write-bounds", action="store_true")
    args = parser.parse_args(argv)
    with open(SPEC, encoding="ascii") as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    summary = {"run_seconds": spec["run_seconds"], "runs": args.runs,
               "workloads": {}}
    spreads: dict[str, list[float]] = {m["name"]: [] for m in metrics}
    print(f"{'workload':12s} {'metric':14s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'spread':>7s} {'bound':>6s}")
    for workload in names:
        results = [run_once(spec, workload, args.first_seed + i, 0)
                   for i in range(args.runs)]
        row = {"failed_share": sorted({r["failed"] / r["attempted"]
                                       for r in results}),
               "correct": all(r["correct"] for r in results),
               "wall_s": max(r["wall_s"] for r in results),
               "metrics": {}}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median
            spreads[m["name"]].append(spread)
            row["metrics"][m["name"]] = {"median": median, "q1": q1, "q3": q3,
                                         "spread": spread, "values": values}
            print(f"{workload:12s} {m['name']:14s} {median:11.5g} {q1:11.5g} "
                  f"{q3:11.5g} {spread:7.3f} {m.get('bound', 0):6.2f}")
        print(f"{workload:12s} failed share {row['failed_share']}, "
              f"correct {row['correct']}, longest run {row['wall_s']:.1f} s")
        if args.trace:
            traced = run_once(spec, workload, args.first_seed, 1)
            with open(os.path.join(OUT, f"{workload}-seed{args.first_seed}"
                                   "-trace1.json"), encoding="ascii") as fh:
                traced_p50 = json.load(fh)["end_to_end"]["op_p50_ms"]
            overhead = traced_p50 / row["metrics"]["op_p50_ms"]["median"] - 1
            row["tracing_overhead"] = overhead
            row["traced_correct"] = traced["correct"]
            print(f"{workload:12s} tracing overhead on op_p50_ms "
                  f"{overhead:+.1%}")
        summary["workloads"][workload] = row
    if args.write_bounds:
        for m in metrics:
            m["bound"] = bound_for(m["name"], spreads[m["name"]])
        with open(SPEC, "w", encoding="ascii") as fh:
            json.dump(spec, fh, indent=2)
            fh.write("\n")
        print("bounds:", {m["name"]: m["bound"] for m in metrics})
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"steadiness-{int(time.time())}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=1)
    print(f"summary: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
