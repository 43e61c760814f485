#!/usr/bin/env python3
"""Steadiness check: runs one workload repeatedly, one seed per run.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Run from the repository root. Each run is `perfbench/run.py` with the next
seed. Prints, for every metric, the median and quartiles of its per-run
values and the spread: (Q3 - Q1) / median, with quartiles as
statistics.quantiles(values, n=4) gives them, next to the metric's bound
in BENCHMARK.json. Also prints each run's share of failed operations.
Exits 1 if a run fails or reports correct=false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values, shares = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print("seed %d: run.py exited %d" % (seed, p.returncode))
            return 1
        res = json.loads(lines[-1])
        if not res["correct"]:
            print("seed %d: correct=false" % seed)
            return 1
        shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: attempted %d failed %d  %s" % (
            seed, res["attempted"], res["failed"],
            " ".join("%s=%.4g" % (n, m["value"])
                     for n, m in res["metrics"].items())), flush=True)

    print("\n%-30s %12s %12s %12s %8s %6s %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "spread/bound"))
    for name, xs in values.items():
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        bound = bounds.get(name)
        print("%-30s %12.6g %12.6g %12.6g %8.4f %6s %s" % (
            name, q2, q1, q3, spread, bound if bound is not None else "-",
            "%.2f" % (spread / bound) if bound else "-"))
    print("failed share per run: %s" % sorted(set(shares)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
