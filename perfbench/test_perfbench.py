#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

Run from the root of a qplace checkout:

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py with short runs (about two minutes in all,
plus one extra build with runtime contracts on).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = "0.5"


def bench(workload, trace=0, threads=0, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", SECONDS,
               "--trace", str(trace)]
    if threads:
        command += ["--threads", str(threads)]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc


def tagged_line(stdout, tag):
    """The report line starting with `tag`."""
    for line in stdout.splitlines():
        if line.startswith(tag + " "):
            return line
    raise AssertionError("no %s line in:\n%s" % (tag, stdout))


def tagged(stdout, tag):
    """The JSON payload of the report line starting with `tag`."""
    return json.loads(tagged_line(stdout, tag)[len(tag) + 1:])


class BenchmarkTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for trace, threads in ((0, 0), (1, 0), (0, 1), (0, 2)):
                cls.runs[(workload, trace, threads)] = bench(
                    workload, trace, threads)

    def result(self, workload, trace=0, threads=0):
        proc = self.runs[(workload, trace, threads)]
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout

    def test_prints_every_named_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                result, stdout = self.result(workload, trace)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                spec = {m["name"]: m for m in SPEC[kind]}
                self.assertEqual(set(result["metrics"]), set(spec))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], spec[name]["unit"], name)
                    # The human-readable table names the unit and direction.
                    row = [l for l in stdout.splitlines()
                           if l.startswith(name + " ")]
                    self.assertEqual(len(row), 1, name)
                    self.assertIn(" %s " % spec[name]["unit"], row[0])
                    self.assertTrue(row[0].endswith(spec[name]["better"]))
                self.assertIn("ops attempted %d, failed 0"
                              % result["attempted"], stdout)
                # Traced ops are attempted ops too, so that failed ops can
                # never outnumber attempted ones.
                ops = tagged(stdout, "qbench.ops")
                self.assertEqual(
                    result["attempted"],
                    ops["op_samples"] + ops["traced_op_samples"])
                if kind == "end_to_end":
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)

    def test_quality_identical_traced_untraced_and_across_pool_sizes(self):
        # docs/PARALLEL.md: results are bit-identical for any pool size.
        for workload in WORKLOADS:
            lines = {key: tagged_line(self.runs[key].stdout, "qbench.quality")
                     for key in self.runs if key[0] == workload}
            reference = lines[(workload, 0, 0)]
            for key, line in lines.items():
                self.assertEqual(line, reference, key)
            untraced, _ = self.result(workload, 0)
            quality = tagged(self.runs[(workload, 0, 0)].stdout, "qbench.quality")
            for name, value in quality.items():
                self.assertEqual(untraced["metrics"][name]["value"], value)

    def test_lp_work_per_workload(self):
        solve, _ = self.result("solve-majority32", 1)
        self.assertEqual(solve["metrics"]["ssqpp_lp.variables"]["value"], 480)
        self.assertEqual(solve["metrics"]["ssqpp_lp.constraints"]["value"], 977)
        self.assertEqual(solve["metrics"]["lp.solves"]["value"], 32)
        self.assertEqual(solve["metrics"]["check.lp_solves"]["value"], 0)
        check, _ = self.result("check-grid16", 1)
        self.assertEqual(check["metrics"]["check.lp_solves"]["value"], 16)
        self.assertEqual(check["metrics"]["lp.solves"]["value"], 32)
        simulate, _ = self.result("simulate-churn32", 1)
        self.assertEqual(simulate["metrics"]["lp.solves"]["value"], 0)
        self.assertEqual(simulate["metrics"]["lp.pivots"]["value"], 0)
        self.assertGreater(
            simulate["metrics"]["sim.completed_accesses"]["value"], 0)

    def test_records_inputs_and_host(self):
        _, stdout = self.result("check-grid16")
        context = tagged(stdout, "qbench.context")
        for key in ("seed", "nproc", "cpu_model", "build_type", "qplace_obs",
                    "qplace_parallel", "pool_threads", "git_sha"):
            self.assertIn(key, context)
        self.assertEqual(context["seed"], 7)
        self.assertEqual(len(context["instances"]), 3)
        for instance in context["instances"]:
            self.assertRegex(instance["digest"], "^[0-9a-f]{16}$")
        setup = tagged(stdout, "qbench.setup")
        self.assertLessEqual(setup["min_s"], setup["median_s"])
        self.assertLessEqual(setup["median_s"], setup["max_s"])


class ContractsTest(unittest.TestCase):
    def test_every_workload_passes_with_contracts_on(self):
        build_dir = os.path.join(ROOT, ".bench_build", "perfbench-contracts")
        binary = run.build(build_dir, ["-DQPLACE_FORCE_CONTRACTS=ON"])
        for workload in WORKLOADS:
            proc = subprocess.run(
                [binary, "--workload", workload, "--seed", "3", "--seconds",
                 SECONDS, "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self.assertIn('"contracts": 1', proc.stdout)
            self.assertTrue(json.loads(proc.stdout.splitlines()[-1])["correct"])


class IsolatedTest(unittest.TestCase):
    def test_fails_without_the_qplace_sources(self):
        isolated = os.path.join(ROOT, ".bench_build", "isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        os.makedirs(isolated)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        shutil.copytree(BENCH_DIR, os.path.join(isolated, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(WORKLOADS[0], cwd=isolated)
        shutil.rmtree(isolated)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
