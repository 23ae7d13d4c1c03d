#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload in short mode,
untraced and traced, and checks that each run is correct and prints
every metric BENCHMARK.json names, with its unit.

    python3 perfbench/selftest.py

Exits 0 when every run passes; prints one line per run.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--quick"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}")
            else:
                result = json.loads(proc.stdout.splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{result['failed']} failed")
                for m in bench[key]:
                    got = result["metrics"].get(m["name"])
                    if got is None:
                        problems.append(f"missing {m['name']}")
                    elif got["unit"] != m["unit"]:
                        problems.append(f"{m['name']} unit {got['unit']}")
                extra = set(result["metrics"]) - {m["name"]
                                                  for m in bench[key]}
                if extra:
                    problems.append(f"unlisted {sorted(extra)}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}", flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
