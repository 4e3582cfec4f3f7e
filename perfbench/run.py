#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: lan_closed_private, lan_open_ycsb_durable.
The build and every file a run writes go under $CARGO_TARGET_DIR (default
.bench_build). The last line of standard output is the run's JSON result;
build output goes to standard error. Exits non-zero, without a result, when
the build or the run fails.
"""
import argparse
import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run must end well inside the 180 s a run may take; the binary's own
# watchdog fires first.
RUN_TIMEOUT_S = 175


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "perfbench-cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", cmake_dir, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(cmake_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    # A run removes its durable data itself; this catches a run that was killed.
    for stale in glob.glob(os.path.join(work_dir, "data-*")):
        shutil.rmtree(stale, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace, "--work-dir", work_dir]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
