#!/usr/bin/env python3
"""Builds the perfbench program from this checkout's sources and runs one
workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build/perfbench
(CMake, Release); label files, journals and traces stay under it. The
program's stdout is passed through unchanged: its last line is the JSON
result. Build output goes to stderr. Exits non-zero, printing no result,
when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    src = os.path.join(ROOT, "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", src, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-reps", type=int, default=5)
    a = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "forest_index.hpp")):
        sys.exit("perfbench: no treelab sources under " + os.path.join(ROOT, "src"))
    exe = build()
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--setup-reps", str(a.setup_reps),
           "--work-dir", os.path.join(BUILD, "work"),
           "--trace-out", os.path.join(traces, a.workload + ".jsonl")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                           text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        sys.exit("perfbench: program exited with code %d" % r.returncode)
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(r.stdout)
        sys.exit("perfbench: program printed no JSON result")
    sys.stdout.write(r.stdout)


if __name__ == "__main__":
    main()
