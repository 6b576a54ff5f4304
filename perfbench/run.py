#!/usr/bin/env python3
"""Builds and runs the end-to-end FL training benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first call configures and builds perfbench/ (the flb library from src/
plus the flb_perfbench binary) in .bench_build/ as a Release build; later
calls only rebuild what changed. The binary's stdout is passed through: its
last line is the result object {"correct", "attempted", "failed", "metrics"}.
A traced run (--trace 1) also writes its spans to
.bench_build/spans/<workload>-seed<seed>.json.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench" / "flb_perfbench"
BUILD_TIMEOUT_S = 700
# A run is the measurement window plus its checks (and, traced, the probes).
RUN_OVERHEAD_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/ tree under {ROOT}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = BUILD_DIR / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") is not None:
        configure += ["-G", "Ninja"]
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = BUILD_DIR / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    # The benchmark pins every knob itself; FLB_* settings from the caller's
    # environment (host threads, fault plans, auto-tuning, the live
    # inspection server) must not leak into the measured runs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLB_")}
    timeout = args.seconds + RUN_OVERHEAD_S
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark run exceeded {timeout} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
