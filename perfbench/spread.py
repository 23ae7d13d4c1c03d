#!/usr/bin/env python3
"""Median and quartiles of every metric across repeated runs.

Runs perfbench/run.py RUNS times per workload, untraced, with seeds
1 to RUNS, and prints per metric the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread, i.e. the
distance between the quartiles as a share of the median. For an
end-to-end metric the spread is flagged when it is not below a third
of the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload sim_batch --runs 10
    python3 perfbench/spread.py --runs 10     # every workload

Use it to quote a before/after: run it on both commits, on the same
machine, and compare the medians against the spreads. Two runs of it
on one commit show whether the medians repeat within the bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({args.runs} runs)")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            note = ""
            if name in bounds and spread >= bounds[name] / 3:
                note = f"  spread >= bound/3 ({bounds[name]})"
            print(f"  {name:36s} median {med:<14.6g} q1 {q1:<14.6g} "
                  f"q3 {q3:<14.6g} spread {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
