#!/usr/bin/env python3
"""End-to-end benchmark of the wivliw toolchain.

Builds the library, the wivliw_serve daemon and the benchmark program
from the sources of this checkout (CMake, Release), runs one workload
and prints, as the last line of standard output, one JSON object
{"correct", "attempted", "failed", "metrics"}. The line before it
carries the run's context (commit, nproc, compiler, build type and
the src/ + tools/ line count) and workload-specific figures.

    python3 perfbench/run.py --workload dse_sweep --seed 1 \\
        --seconds 10 --trace 0

Run it from the root of the repository. Build output goes to
$CARGO_TARGET_DIR (default .bench_build), traces and sockets to
.bench_out. Workloads and metrics are described in
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dse_sweep", "sim_batch", "gap_report", "serve_closed"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure (once) and build; returns the binary directory."""
    out = build_dir()
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return out


def source_lines():
    """Lines of C++ under src/ and tools/ (the repository's size)."""
    total = 0
    for top in ("src", "tools"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name.endswith((".cc", ".hh")):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        total += sum(1 for _ in f)
    return total


def cpu_times():
    """System-wide CPU time counters from /proc/stat (USER_HZ ticks)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before, after):
    """Share of all CPU time the hypervisor took away in between."""
    delta = [a - b for a, b in zip(after, before)]
    return delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else 0.0


def commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one short pass of every phase (self-test)")
    args = ap.parse_args()

    try:
        bin_dir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bin_dir, "wivliw_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(bin_dir, "wivliw_serve"),
           "--source-root", ROOT,
           # Relative, so the daemon's socket path stays short.
           "--out-dir", os.path.relpath(out_dir, ROOT)]
    if args.quick:
        cmd.append("--quick")
    cpu_before = cpu_times()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        log(f"{args.workload} failed (exit {proc.returncode})")
        return 1

    report = json.loads(lines[-2])
    context = {
        # A noisy host shows here: time slices taken by other guests
        # stretch every wall-clock metric of the run.
        "host_steal_share": round(steal_share(cpu_before, cpu_times()), 4),
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": report["build"]["compiler"],
        "build_type": report["build"]["type"],
        "src_tools_lines": source_lines(),
    }
    print(json.dumps({"context": context, **report}))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
