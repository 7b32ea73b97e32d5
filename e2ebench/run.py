#!/usr/bin/env python3
"""Builds and runs the end-to-end DRCR stack benchmark.

    python3 e2ebench/run.py --workload steady_256|churn_512|fed_16 \
        --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --test

Run from the root of a checkout. The benchmark is a CMake project of its own
(e2ebench/CMakeLists.txt) that compiles the repository's libraries from
src/; it is configured and built under .bench_build/e2ebench on every call
(a no-op when nothing changed). Build output goes to stderr; the benchmark's
stdout is passed through, so its last line is the JSON result. Traced runs
also write the spans of their last traced round to
.bench_build/e2ebench/spans-<workload>-<seed>.tsv.

--test builds and runs the benchmark's own tests instead.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "e2ebench")
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: src/ is missing; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("e2ebench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    if args.test:
        build(["e2e_tests"])
        return subprocess.run([os.path.join(BUILD, "e2e_tests")],
                              cwd=ROOT).returncode
    if not args.workload:
        parser.error("--workload is required")
    build(["e2e_bench"])
    command = [os.path.join(BUILD, "e2e_bench"), "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds,
               "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans-out", os.path.join(
            BUILD, "spans-%s-%s.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
