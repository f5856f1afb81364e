#!/usr/bin/env python3
"""Builds (if needed) and runs the SEDSpec benchmark.

Run from the repository root:

    python3 sedbench/run.py --workload guest_io --seed 1 --seconds 15 --trace 0

The benchmark is compiled from the repository's own sources (src/) plus
the files in this directory, into $CARGO_TARGET_DIR (default .bench_build)
under the repository root. Build output goes to stderr; the benchmark's
last stdout line is its JSON result. Exits non-zero, without a result, if
the sources are missing or the build fails, and non-zero with a result if
a correctness check failed.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("guest_io", "hostile_mix", "fleet")
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("sedbench: sedspec sources (src/) not found next to "
                 "sedbench/; run from a full checkout")
    cmake_dir = os.path.join(out, "cmake")
    binary = os.path.join(cmake_dir, "sedbench")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, cwd=ROOT)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"sedbench: build failed: {err}")
    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    sys.stdout.flush()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("sedbench: run exceeded its time limit")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
