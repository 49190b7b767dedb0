#!/usr/bin/env python3
"""The benchmark's own tests, at toy sizes.

Usage (from the repository root):
    python3 perfbench/test_perfbench.py

On every workload they check that every metric of BENCHMARK.json prints
with its unit, that one-lane counts and input fingerprints repeat exactly
across two runs of one seed, that a corrupted answer is reported as a
failed solve, and that the traced one-lane self times add up to the traced
solve within 5%. They also check the Chrome trace with
scripts/check_trace.py and that run.py fails cleanly without the sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("rt.rounds_1lane", "rt.launched_1lane", "rt.aborted_1lane")
SELF_TIMES = ("rt.self_s_1lane", "solve.self_s_1lane",
              "apps.op_commit_s_1lane", "apps.op_abort_s_1lane",
              "control.observe_s_1lane", "verify.certify_s_1lane")


def bench(workload, seed=7, trace=1, *extra, cwd=ROOT):
    """Run the benchmark at toy size; returns (returncode, context, result,
    stderr)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--toy",
         *extra], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    lines = proc.stdout.splitlines()
    context = next((json.loads(l.split(" ", 1)[1]) for l in lines
                    if l.startswith("context ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, context, result, proc.stderr


class PerfbenchTest(unittest.TestCase):
    runs = {}

    @classmethod
    def run_cached(cls, workload, trace, rep=0, *extra):
        key = (workload, trace, rep, extra)
        if key not in cls.runs:
            cls.runs[key] = bench(workload, 7, trace, *extra)
        return cls.runs[key]

    def test_every_metric_prints_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, listed in ((0, SPEC["end_to_end"]),
                                  (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, context, result, err = self.run_cached(workload,
                                                                 trace)
                    self.assertEqual(code, 0, err)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    for m in listed:
                        self.assertIn(m["name"], result["metrics"])
                        self.assertEqual(result["metrics"][m["name"]]["unit"],
                                         m["unit"], m["name"])
                    self.assertEqual(context["ndebug"], True)
                    self.assertGreaterEqual(context["nproc"], 1)

    def test_counts_and_fingerprints_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, ctx_a, res_a, _ = self.run_cached(workload, 1, 0)
                _, ctx_b, res_b, _ = self.run_cached(workload, 1, 1)
                self.assertEqual(ctx_a["fingerprint"], ctx_b["fingerprint"])
                for name in COUNTS:
                    self.assertEqual(res_a["metrics"][name]["value"],
                                     res_b["metrics"][name]["value"], name)
                    self.assertGreater(res_a["metrics"][name]["value"], 0)
                _, ctx_c, _, _ = bench(workload, 8, 0)
                self.assertNotEqual(ctx_a["fingerprint"], ctx_c["fingerprint"])

    def test_corrupted_answer_is_a_failed_solve(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result, err = bench(workload, 7, 0, "--corrupt")
                self.assertEqual(code, 0, err)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertIn("certificate refuted", err)
                self.assertIn("check: ", err)

    def test_one_lane_self_times_add_up(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, _, result, _ = self.run_cached(workload, 1)
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                for name in SELF_TIMES:
                    self.assertGreaterEqual(metrics[name], 0.0, name)
                total = sum(metrics[name] for name in SELF_TIMES)
                solve = metrics["trace.solve_s_1lane"]
                self.assertAlmostEqual(total / solve, 1.0, delta=0.05)
                self.assertIn("trace.overhead_1lane", metrics)

    def test_chrome_trace_is_valid(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.run_cached(workload, 1)
                trace = ROOT / ".bench_build" / "traces" / f"{workload}-7.json"
                check = subprocess.run(
                    [sys.executable, str(ROOT / "scripts" / "check_trace.py"),
                     str(trace)], stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True)
                self.assertEqual(check.returncode, 0, check.stderr)
                names = {e["name"] for e in
                         json.loads(trace.read_text())["traceEvents"]}
                self.assertTrue({"graph.build", "sched.push", "rt.step",
                                 "control.observe", "verify.certify",
                                 "baseline.serial", "solve"} <= names)

    def test_fails_cleanly_without_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, _, result, _ = bench(WORKLOADS[0], 7, 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
