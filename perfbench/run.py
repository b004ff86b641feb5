#!/usr/bin/env python3
"""Runs the repo benchmark: builds the engine and the workload runner from
source, then runs one workload in its own process.

    python3 perfbench/run.py --workload cad_select --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run it from the repository root. The build goes to .bench_build/perfbench
(CMake, Release); run records and span files to .bench_build/perfbench/runs.
The workload process gets the environment without any CCDB_* variable: the
benchmark pins the engine configuration itself. The last stdout line is the
run's JSON result {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = BUILD_DIR / "runs"
WORKLOADS = ("cad_select", "cad_rw", "linear_rw", "datalog_refresh")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "engine" / "database.h").is_file():
        fail("engine sources not found under %s/src" % ROOT)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j",
                  str(os.cpu_count() or 1), "--target", "perfbench",
                  "perfbench_selftest"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build step failed: " + " ".join(step))


def run_workload(workload, seed, seconds, trace):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CCDB_")}
    command = [str(BUILD_DIR / "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out-dir", str(RUNS_DIR)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("%s exited with code %d" % (workload, done.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s printed a malformed result line" % workload)
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        report, result = run_workload(workload, args.seed, args.seconds,
                                      args.trace)
        print("\n".join(report))
        results[workload] = result
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))


if __name__ == "__main__":
    main()
