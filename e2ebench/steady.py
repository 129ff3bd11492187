#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs the command of BENCHMARK.json on every workload N times, alternating
workloads and using a new --seed for each round, and prints for every
end-to-end metric its median, quartiles (statistics.quantiles, n=4), the
quartile spread as a share of the median, and the worst single deviation
from the median, next to the metric's bound. Run it from the repository
root:

    python3 e2ebench/steady.py --runs 10 [--first-seed 1] [--workloads a,b]
                               [--save set1.json] [--compare set0.json]

--save writes the raw figures; --compare reads a saved set and reports, per
metric and workload, how far this set's median moved from that one's, in
the metric's worse direction.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    return result, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--save", default="")
    ap.add_argument("--compare", default="")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    figures = {w: {m: [] for m in metrics} for w in workloads}
    failures = {w: [] for w in workloads}
    walls = {w: [] for w in workloads}
    for i in range(opts.runs):
        seed = opts.first_seed + i
        for w in workloads:
            result, wall = run_once(bench["command"], w, seed, bench["run_seconds"])
            walls[w].append(wall)
            if not result["correct"]:
                print(f"{w} seed {seed}: outputs are NOT correct", flush=True)
            failures[w].append((result["failed"], result["attempted"]))
            for m in metrics:
                figures[w][m].append(result["metrics"][m]["value"])
            print(f"run {i + 1}/{opts.runs} {w} seed {seed}: {wall:.1f} s wall, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)

    previous = {}
    if opts.compare:
        with open(opts.compare) as f:
            previous = json.load(f)["figures"]

    print()
    print(f"{'workload':<12} {'metric':<15} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'worst':>7} {'bound':>6} {'moved':>7}")
    steady = True
    for w in workloads:
        for m, spec in metrics.items():
            xs = figures[w][m]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            worst = max(abs(x - med) for x in xs) / med
            moved = ""
            if w in previous:
                before = statistics.median(previous[w][m])
                change = (med - before) / before
                if spec["better"] == "higher":
                    change = -change
                moved = f"{change:+.1%}"
            if m != "setup_s" and spread > spec["bound"] / 3:
                steady = False
            print(f"{w:<12} {m:<15} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.1%} {worst:>7.1%} {spec['bound']:>6.0%} {moved:>7}")
        shares = {f / a for f, a in failures[w]}
        print(f"{w:<12} failed shares {sorted(shares)}; wall per run "
              f"median {statistics.median(walls[w]):.1f} s, max {max(walls[w]):.1f} s")
    print("every spread below a third of its bound" if steady
          else "some spread is above a third of its bound")
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump({"figures": figures, "failures": failures, "walls": walls}, f)


if __name__ == "__main__":
    main()
