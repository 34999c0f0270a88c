#!/usr/bin/env python3
"""Steadiness check: runs one workload N times, each with another seed, and
prints per metric the median, the quartiles and the quartile spread as a
share of the median (Python's statistics.quantiles(values, n=4)), plus
the failed share of attempted operations. The raw wall-clock figures
behind the speed-normalized metrics are listed after them.

    python3 perfbench/steady.py --workload compose-exact --runs 10 \
        --first-seed 1 --seconds 20 [--trace 0]
    python3 perfbench/steady.py --workload compose-exact --runs 5 --overhead

With --overhead each seed runs untraced and then traced, back to back,
and the traced request timings are compared with the untraced ones: the
median and quartiles of traced / untraced - 1 per seed.

The bounds in BENCHMARK.json are set from batches of these taken at
different times. Each batch's raw results are kept as JSON under
.bench_build/perfbench/steady/ for comparison with later batches.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench", "steady")


def run(args, seed, trace):
    """Runs one seed; returns its result with the raw figures under "raw"."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           args.workload, "--seed", str(seed), "--seconds",
           str(args.seconds), "--trace", str(trace)]
    t0 = time.time()
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("seed %d: run failed (exit %d)" % (seed, done.returncode))
    result = json.loads(lines[-1])
    result["seed"], result["wall_s"] = seed, wall
    # Raw wall-clock and speed-reference figures from the summary.
    result["raw"] = {}
    for line in done.stderr.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0].startswith(("wall.", "speed.")):
            result["raw"][parts[0]] = {"value": float(parts[1]),
                                       "unit": parts[2]}
    print("seed %3d  trace %d  %5.1f s  attempted %6d  failed %4d  "
          "correct %s" % (seed, trace, wall, result["attempted"],
                          result["failed"], result["correct"]), flush=True)
    return result


def summarize(name, values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    print("%-42s %14.4f %14.4f %14.4f %7.1f%%" % (name, med, q1, q3,
                                                  100.0 * spread))


def overhead(args):
    """Traced against untraced runs of the same seeds, back to back."""
    shares = {"request_ref_ms_p50": [], "requests_per_ref_s": []}
    for k in range(args.runs):
        seed = args.first_seed + k
        plain = run(args, seed, 0)["metrics"]
        traced = run(args, seed, 1)["metrics"]
        for name, values in shares.items():
            values.append(traced["trace." + name]["value"] /
                          plain[name]["value"] - 1.0)
    print("\n%-42s %14s %14s %14s" % ("traced / untraced - 1", "median",
                                     "q1", "q3"))
    for name, values in shares.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        print("%-42s %13.1f%% %13.1f%% %13.1f%%" % (
            name, 100.0 * statistics.median(values), 100.0 * q1, 100.0 * q3))


def main():
    parser = argparse.ArgumentParser(allow_abbrev=False, description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    if args.overhead:
        overhead(args)
        return

    results = []
    for k in range(args.runs):
        seed = args.first_seed + k
        results.append(run(args, seed, args.trace))

    rows = [(name, "metrics") for name in results[0]["metrics"]]
    rows += [(name, "raw") for name in results[0]["raw"]]
    print("\n%-42s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3",
                                          "spread"))
    for name, channel in rows:
        summarize(name, [r[channel][name]["value"] for r in results])
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("failed shares: %s; all correct: %s" %
          (shares, all(r["correct"] for r in results)))

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-%s.json" % (args.workload,
                                             time.strftime("%Y%m%dT%H%M%S")))
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print("raw results: %s" % os.path.relpath(path, ROOT))


if __name__ == "__main__":
    main()
