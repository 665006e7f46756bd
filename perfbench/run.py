#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
perfbench/ (the library from src/ plus the driver) into .bench_build/;
later runs rebuild only what changed.  Build output goes to standard
error, so the driver's result line stays the last line of standard
output.  The exit status is the driver's: 0 only when every output
matched its reference.
"""
import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
DRIVER = BUILD / "perfbench_driver"
WORKLOADS = ("month_sharded", "halfyear_union_ckpt", "live_hourly")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def step(cmd):
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if done.returncode != 0:
        fail(f"'{' '.join(cmd)}' exited with {done.returncode}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found at {ROOT / 'src'}; run from a full checkout")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={ROOT / 'perfbench'}"
        if home not in cache.read_text(errors="replace").splitlines():
            step(["cmake", "-E", "rm", "-rf", str(BUILD)])  # another checkout's build
    if not cache.is_file():
        step(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(len(os.sched_getaffinity(0)))
    step(["cmake", "--build", str(BUILD), "--target", "perfbench_driver", "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be at least 1 and --seed non-negative")
    build()
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK), *extra]
    try:
        done = subprocess.run(cmd, check=False, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
