#!/usr/bin/env python3
"""Runs one workload of the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve-commit --seed 1 --seconds 10 --trace 0

Builds el-sim and the benchmark from source with dune, pins the
benchmark (and the server it spawns) to one CPU with taskset, and
keeps the server's socket and log under .perfbench_run/ in the
checkout, removed again at the end.  The serve images are anonymous
in-memory files (memfd, the shmem that backs tmpfs), so they touch no
file system.  The last line of stdout is the result object;
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["serve-commit", "sim-paper", "oracle-sweep"]
WORK_DIR = ".perfbench_run"
BENCH_EXE = "_build/default/perfbench/bench.exe"
EL_SIM_EXE = "_build/default/bin/el_sim_cli.exe"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    ap.add_argument("--plant", help="plant a fault, for the self-test")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    for needed in ("dune-project", "bin/el_sim_cli.ml", "lib/serve/serve.ml"):
        if not os.path.exists(needed):
            fail(needed + " not found: run from the root of a repository checkout")
    if shutil.which("dune") is None or shutil.which("taskset") is None:
        fail("dune and taskset must be on PATH")

    # Build unpinned, so dune can use every CPU; the shared dune cache
    # lives outside the checkout, so it stays off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/el_sim_cli.exe", "./perfbench/bench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")

    # Client and server share one CPU: the highest one we may use.  Under
    # SCHED_BATCH a woken task does not preempt the running one, so the
    # server answers a whole batch before the client reads it; under the
    # default policy runs split between two hand-off patterns whose
    # commit latencies differ by half.  Children inherit the policy.
    cpu = str(max(os.sched_getaffinity(0)))
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except OSError as e:
        print("perfbench: SCHED_BATCH refused (%s); running under the default policy" % e,
              file=sys.stderr)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    cmd = ["taskset", "-c", cpu, BENCH_EXE,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--el-sim", EL_SIM_EXE, "--dir", WORK_DIR]
    if args.tiny:
        cmd.append("--tiny")
    if args.plant:
        cmd += ["--plant", args.plant]
    # Three image slots for serve-commit: the filled history, the
    # servers' copy and the in-process probes' copy.  Children open
    # them as /proc/self/fd/N, so the descriptors are inherited.
    fds = []
    if args.workload == "serve-commit":
        fds = [os.memfd_create("perfbench-" + n, 0) for n in ("fill", "run", "scratch")]
        cmd += ["--images", ",".join("/proc/self/fd/%d" % fd for fd in fds)]
    try:
        rc = subprocess.run(cmd, pass_fds=fds).returncode
    finally:
        for fd in fds:
            os.close(fd)
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
