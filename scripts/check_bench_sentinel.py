#!/usr/bin/env python3
"""Bench sentinel: assert the steady-state executor round stayed fast.

Reads a google-benchmark JSON artifact (BENCH_rt.json or a raw
--benchmark_format=json capture) and fails unless the
BM_SpecExecutorRound/2048 median is at least --min-speedup times faster
than --baseline-ns (the pre-pipelining median recorded when the software-
pipelined executor landed; see EXPERIMENTS.md). When the capture also
holds BM_SpecExecutorRoundConflicted/2048 (the same round with half the
tasks aborting), its median may be at most ABORT_CEILING times the
conflict-free round's, which keeps the abort path cheap.

With --sched, instead validates the scheduler head-to-head section
(DESIGN.md §14): every workload's chromatic cell must have zero aborts
and a correct answer, and on the conflict-dense coloring workloads its
time-to-solution must be at most --sched-slack times the random draw's.
Accepts either BENCH_rt.json (reads "sched_compare") or a raw `sched_compare --out` capture (reads "workloads" at top level).

Usage:
  scripts/check_bench_sentinel.py BENCH_rt.json \
      --baseline-ns 145476.2 --min-speedup 1.5
  scripts/check_bench_sentinel.py sched.json --sched [--sched-slack 1.0]
"""

import argparse
import json
import sys

BENCH = "BM_SpecExecutorRound/2048"
CONFLICTED_BENCH = "BM_SpecExecutorRoundConflicted/2048"
ABORT_CEILING = 2.0  # an abort is a return value, not a throw


def median_real_time(doc, run_name):
    """The bench's median real_time: the 'median' aggregate when
    repetitions were aggregated, else the median of plain iterations."""
    times = []
    for b in doc.get("benchmarks", []):
        name = b.get("run_name", b.get("name", ""))
        if name != run_name or "real_time" not in b:
            continue
        agg = b.get("aggregate_name")
        if agg == "median":
            return float(b["real_time"])
        if agg is None and b.get("run_type", "iteration") == "iteration":
            times.append(float(b["real_time"]))
    if times:
        return sorted(times)[len(times) // 2]
    return None


def require_median(doc, artifact, run_name):
    """The bench's median real_time, or exit naming what is missing."""
    current = median_real_time(doc, run_name)
    if current is None:
        sys.exit(f"check_bench_sentinel: no median for {run_name!r} "
                 f"in {artifact}")
    return current


def check_sched(doc, artifact, slack):
    """The chromatic sentinel over a sched_compare section."""
    workloads = doc.get("sched_compare", doc).get("workloads")
    if not workloads:
        sys.exit(f"check_bench_sentinel: no sched_compare workloads "
                 f"in {artifact}")
    failures = []
    for wl, cells in sorted(workloads.items()):
        chromatic, random_ = cells.get("chromatic"), cells.get("random")
        if not chromatic or not random_:
            failures.append(f"{wl}: missing backend cell")
            continue
        ratio = (random_["time_ms"] / chromatic["time_ms"]
                 if chromatic["time_ms"] else float("inf"))
        print(f"{wl}: random {random_['time_ms']:.1f} ms "
              f"(aborted {random_['aborted']}) vs chromatic "
              f"{chromatic['time_ms']:.1f} ms "
              f"(aborted {chromatic['aborted']}) — {ratio:.2f}x")
        if chromatic["aborted"] != 0:
            failures.append(f"{wl}: chromatic aborted "
                            f"{chromatic['aborted']} tasks (must be 0)")
        # tts is gated on the conflict-dense coloring workloads only; on
        # moderate-conflict MIS chromatic is round-bound (one color class
        # per round) and tts is recorded but not a contract.
        if (wl.endswith("-coloring") and
                chromatic["time_ms"] > random_["time_ms"] * slack):
            failures.append(f"{wl}: chromatic tts exceeds random x {slack}")
        for name, cell in cells.items():
            if not cell.get("correct", False):
                failures.append(f"{wl}/{name}: incorrect answer")
    if failures:
        sys.exit("check_bench_sentinel: chromatic sentinel tripped:\n  "
                 + "\n  ".join(failures))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("artifact", help="google-benchmark JSON file")
    ap.add_argument("--baseline-ns", type=float,
                    help="pre-change median real_time in nanoseconds")
    ap.add_argument("--min-speedup", type=float, default=1.5,
                    help="required baseline/current ratio (default 1.5)")
    ap.add_argument("--bench", default=BENCH,
                    help=f"benchmark run name (default {BENCH})")
    ap.add_argument("--sched", action="store_true",
                    help="validate the sched_compare chromatic sentinel "
                         "instead of the executor-round speedup floor")
    ap.add_argument("--sched-slack", type=float, default=1.0,
                    help="allowed chromatic/random tts ratio (default 1.0)")
    args = ap.parse_args()

    with open(args.artifact) as f:
        doc = json.load(f)
    if args.sched:
        check_sched(doc, args.artifact, args.sched_slack)
        return
    if args.baseline_ns is None:
        ap.error("--baseline-ns is required without --sched")
    current = require_median(doc, args.artifact, args.bench)
    speedup = args.baseline_ns / current
    print(f"{args.bench}: {args.baseline_ns:.0f} ns -> {current:.0f} ns "
          f"({speedup:.2f}x, floor {args.min_speedup:.2f}x)")
    failures = []
    if speedup < args.min_speedup:
        failures.append(f"{args.bench} regressed — {speedup:.2f}x vs the "
                        f"{args.baseline_ns:.0f} ns baseline is below the "
                        f"{args.min_speedup:.2f}x floor")
    conflicted = median_real_time(doc, CONFLICTED_BENCH)
    if conflicted is not None:
        ratio = conflicted / require_median(doc, args.artifact, BENCH)
        print(f"{CONFLICTED_BENCH}: {conflicted:.0f} ns = {ratio:.2f}x "
              f"{BENCH} (ceiling {ABORT_CEILING:.2f}x)")
        if ratio > ABORT_CEILING:
            failures.append(f"{CONFLICTED_BENCH} is {ratio:.2f}x {BENCH}, "
                            f"above the {ABORT_CEILING:.2f}x ceiling")
    if failures:
        sys.exit("check_bench_sentinel: executor-round sentinel tripped:\n  "
                 + "\n  ".join(failures))


if __name__ == "__main__":
    main()
