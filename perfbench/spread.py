#!/usr/bin/env python3
"""Spread report: run one workload N times, one seed each, and print the
median, quartiles, range and spread of every metric.

Usage (from the repository root):
    python3 perfbench/spread.py --workload mis-er [--runs 10] [--seed0 1]
        [--seconds S] [--trace 0|1] [--out runs.jsonl]
    python3 perfbench/spread.py --from runs.jsonl [--from more.jsonl ...]

The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). For end-to-end metrics the report
compares it with the metric's bound in BENCHMARK.json: a spread above a
third of the bound is marked "!". --seconds defaults to BENCHMARK.json's
run_seconds. --out appends each run's result line, so sets of runs can be
re-reported or pooled later with --from.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else {}


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns its parsed result line."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["workload"] = workload
    result["seed"] = seed
    result["wall_s"] = time.monotonic() - start
    return result


def report(results, spec):
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    by_workload = {}
    for r in results:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, runs in by_workload.items():
        walls = [r["wall_s"] for r in runs if "wall_s" in r]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"== {workload}: {len(runs)} runs, {failed}/{attempted} solves "
              f"failed" + (f", run wall max {max(walls):.1f} s" if walls
                           else ""))
        print(f"{'metric':30} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
        names = list(runs[0]["metrics"])
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs
                      if name in r["metrics"]]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "!" if bound is not None and spread > bound / 3 else ""
            print(f"{name:30} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{min(values):12.6g} {max(values):12.6g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--from", dest="sources", action="append")
    args = parser.parse_args()
    spec = load_spec()

    results = []
    for source in args.sources or []:
        with open(source, encoding="utf-8") as fh:
            results += [json.loads(line) for line in fh if line.strip()]
    if args.workload:
        seconds = args.seconds or spec.get("run_seconds", 10)
        for i in range(args.runs):
            r = run_once(args.workload, args.seed0 + i, seconds, args.trace)
            results.append(r)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(r) + "\n")
    if not results:
        parser.error("give --workload or --from")
    report(results, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
