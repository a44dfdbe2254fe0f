#!/usr/bin/env python3
"""Build (on first use) and run the NN-Baton end-to-end benchmark.

    python3 perfbench/run.py --workload fig15_sweep --seed 1 \
        --seconds 30 --trace 0

Run it from the repository root.  The library and the benchmark
binary are compiled from source into .bench_build/ (CMake, the
repository's default RelWithDebInfo flags); later runs only re-check
the build.  Build output goes to stderr, so the last line of stdout is
the binary's JSON result.  Traced runs (--trace 1) write their spans
to .bench_build/out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fig15_sweep", "post_zoo", "serve_mix")


def build():
    """Configure and build into BUILD; return the binary path."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    sys.stdout.flush()
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", os.path.join(BUILD, "out")])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
