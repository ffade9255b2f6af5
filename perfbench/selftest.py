#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks
that each run passes its gates and prints every metric BENCHMARK.json
names, with its unit.  Then plants one fault per gate and checks that
the gate fires: the run must exit non-zero, report correct=false and
name the gate on stderr.  Last, it checks that the launcher refuses to
run in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

# (workload, planted fault, text the gate's message must contain)
PLANTED = [
    ("serve-commit", "unacked-read", "durability"),
    ("serve-commit", "unbegun-write", "response"),
    ("sim-paper", "sim-infeasible", "infeasible"),
    ("sim-paper", "nondeterministic", "determinism"),
    ("oracle-sweep", "oracle-diverge", "diverged"),
    ("oracle-sweep", "sparse-sweep", "floor"),
]

failures = []


def check(ok, msg):
    if not ok:
        failures.append(msg)
        print("FAIL: " + msg, flush=True)


def passed(tag, failures_before):
    if len(failures) == failures_before:
        print("ok: " + tag, flush=True)


def run(workload, trace, plant=None, cwd=ROOT):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    if plant:
        cmd += ["--plant", plant]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p, result


def check_metrics(tag, result, specs):
    metrics = result.get("metrics", {})
    check(set(metrics) == {s["name"] for s in specs},
          "%s: metric names differ from BENCHMARK.json: %s"
          % (tag, sorted(set(metrics) ^ {s["name"] for s in specs})))
    for s in specs:
        got = metrics.get(s["name"])
        if got is None:
            continue
        check(got.get("unit") == s["unit"], "%s: %s has unit %r, not %r"
              % (tag, s["name"], got.get("unit"), s["unit"]))
        v = got.get("value")
        check(isinstance(v, (int, float)) and math.isfinite(v),
              "%s: %s is not a finite number" % (tag, s["name"]))


def main():
    for w in BENCH["workloads"]:
        name = w["name"]
        for trace, specs in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            tag = "%s trace=%d" % (name, trace)
            before = len(failures)
            p, result = run(name, trace)
            check(p.returncode == 0, "%s: exit %d\n%s" % (tag, p.returncode, p.stderr[-2000:]))
            if result is None:
                check(False, tag + ": no result line")
                continue
            check(result.get("correct") is True, tag + ": correct is not true")
            check(result.get("attempted", 0) >= 1, tag + ": attempted < 1")
            check(result.get("failed") == 0, tag + ": failed != 0")
            check_metrics(tag, result, specs)
            if trace == 0:
                for s in specs:
                    v = result["metrics"].get(s["name"], {}).get("value")
                    check(v != 0, "%s: %s is 0" % (tag, s["name"]))
            passed(tag, before)

    for workload, plant, gate in PLANTED:
        tag = "%s --plant %s" % (workload, plant)
        before = len(failures)
        p, result = run(workload, 0, plant)
        check(p.returncode != 0, tag + ": exit 0, the gate did not fail the run")
        check(result is not None and result.get("correct") is False,
              tag + ": result does not read correct=false")
        check("gate failed" in p.stderr and gate in p.stderr,
              "%s: stderr names no %r gate:\n%s" % (tag, gate, p.stderr[-2000:]))
        passed(tag, before)

    # Outside a checkout the launcher must fail fast, with no result.
    bare = os.path.join(ROOT, ".perfbench_selftest")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        before = len(failures)
        p, result = run("sim-paper", 0, cwd=bare)
        check(p.returncode != 0 and result is None,
              "bare directory: exit %d, result %r" % (p.returncode, result))
        passed("bare directory refused", before)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    if failures:
        print("%d check(s) failed" % len(failures))
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
