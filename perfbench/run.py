#!/usr/bin/env python3
"""Build and run qplace's end-to-end benchmark.

Usage, from the root of a qplace checkout:

    python3 perfbench/run.py --workload solve-majority32 --seed 1 \
        --seconds 35 --trace 0

builds the library from ./src and the `qbench` program (perfbench/qbench.cpp)
into .bench_build/perfbench, runs one workload and passes its output through:
a human-readable report, then, as the last line, the JSON result
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs every
workload in turn and ends with one JSON line whose metric names are prefixed
by the workload. The exit status is 0 only when every check passed.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["solve-majority32", "check-grid16", "simulate-churn32"]


def build(build_dir, cmake_args=()):
    """Configures (once) and builds qbench; returns the binary's path."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release", *cmake_args],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "qbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(build_dir, "qbench")


def git_sha():
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        with open(os.path.join(ROOT, ".git", head[5:])) as f:
            return f.read().strip()[:12]
    except OSError:
        return "unknown"


def run_workload(binary, args, workload, capture):
    trace_out = os.path.join(
        os.path.dirname(binary),
        "spans-%s-%d.json" % (workload, args.seed))
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(), "--trace-out", trace_out]
    if args.threads:
        command += ["--threads", str(args.threads)]
    return subprocess.run(command, stdout=subprocess.PIPE if capture else None,
                          text=True, timeout=170)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="override the workload's pool size")
    args = parser.parse_args()

    try:
        binary = build(os.path.join(ROOT, ".bench_build", "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    if args.workload != "all":
        return run_workload(binary, args, args.workload, False).returncode

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = run_workload(binary, args, workload, True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if proc.returncode not in (0, 1) or result is None:
            print("perfbench: %s exited with %d" % (workload, proc.returncode),
                  file=sys.stderr)
            return 2
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "/" + name] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
