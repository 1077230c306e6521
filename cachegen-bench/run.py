#!/usr/bin/env python3
"""cachegen-bench entry point.

Builds the benchmark driver (and the cachegen library from ../src) into
.bench_build/ at the repository root, then runs one workload:

    python3 cachegen-bench/run.py --workload hot-hits --seed 1 --seconds 20 --trace 0

The driver prints a "digest" line and, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. Build output
goes to stderr. The exit code is the driver's (non-zero when a build step or
a correctness check fails).
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("hot-hits", "write-back", "prefix-read")


def build() -> Path:
    """Configure and build the driver (incremental, serialised by a lock)."""
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("cachegen-bench: cmake not found")
    BUILD.mkdir(exist_ok=True)
    out = BUILD / "cmake"
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                [cmake, "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release", *gen],
                check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run([cmake, "--build", str(out), "-j", jobs],
                       check=True, stdout=sys.stderr)
    return out / "cachegen_bench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        print(f"cachegen-bench: build failed: {e}", file=sys.stderr)
        return 1

    scratch = BUILD / f"run-{os.getpid()}"
    try:
        return subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", str(scratch)],
            timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("cachegen-bench: driver timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
