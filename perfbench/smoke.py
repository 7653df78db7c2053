#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for a short window, untraced and
traced, and fails unless each run prints every metric BENCHMARK.json names
(by name and unit, both in the report lines and in the final JSON), reports
no failed operation, and reads ok_frac = 1. edit_mix must also print its
edit metrics. Takes a few minutes (one build, then six short runs).
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EDIT_LINES = ["edit_p50_us", "edit_p99_us", "edit_samples",
              "core.relabel.insert_us", "core.journal.append_us",
              "serve.apply_delta_us", "journal.checkpoints"]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "2", "--trace", str(trace),
           "--setup-reps", "1"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=900)
    if r.returncode != 0:
        raise AssertionError("%s trace=%d exited %d" % (workload, trace,
                                                        r.returncode))
    return r.stdout.rstrip("\n").split("\n")


def check(workload, trace, lines, expected, problems):
    tag = "%s trace=%d" % (workload, trace)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (tag, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("%s: correct=%s attempted=%s failed=%s" % (
            tag, result["correct"], result["attempted"], result["failed"]))
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in expected):
        problems.append("%s: metric names differ from BENCHMARK.json" % tag)
    printed = {}
    for line in lines[:-1]:
        f = line.split()
        if len(f) == 3 and line.startswith("  "):
            printed[f[0]] = f[2]
    for m in expected:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"] or \
                not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append("%s: bad JSON entry for %s: %s" % (tag, m["name"], got))
        if printed.get(m["name"]) != m["unit"]:
            problems.append("%s: no report line '%s <value> %s'" % (
                tag, m["name"], m["unit"]))
    if trace == 0 and metrics.get("ok_frac", {}).get("value") != 1:
        problems.append("%s: ok_frac = %s" % (tag, metrics.get("ok_frac")))
    if workload == "edit_mix":
        for name in EDIT_LINES if trace else EDIT_LINES[:3]:
            if name not in printed:
                problems.append("%s: no report line for %s" % (tag, name))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            check(w["name"], trace, run(w["name"], trace), expected, problems)
            print("smoke: %s trace=%d done" % (w["name"], trace), flush=True)
    for p in problems:
        print("FAIL " + p)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
