#!/usr/bin/env bash
# Run the performance benchmarks and write BENCH_rt.json (bench/perf_micro)
# and BENCH_model.json (bench/model_sampling) at the repository root.
#
# Usage:
#   scripts/run_bench.sh [baseline.json]
#
# With no argument the artifacts hold the raw google-benchmark JSON of the
# current build. With a baseline file (google-benchmark JSON captured from an
# earlier build, e.g. the pre-refactor seed), every BENCH_rt.json entry gains
# "baseline_real_time" and "speedup" fields so before/after lives in one
# artifact.
#
# Benchmarks are only meaningful from an optimized, assert-free binary, so
# this script builds the `release` CMake preset (CMAKE_BUILD_TYPE=Release,
# build-release/) and then REFUSES to write either artifact unless the
# binary's own context keys say optipar_ndebug=1 and a non-debug build type.
# google-benchmark's own "library_build_type" context key describes the
# installed libbenchmark, not our binaries (bench/bench_context.hpp), so the
# artifacts rewrite it to the verified optipar build type and keep the
# library's value under "benchmark_library_build_type".
#
# BENCH_model.json additionally carries a regression sentinel: the adaptive
# engine must reach epsilon in at most half the sweeps of the plain stopping
# rule on the clique-structured workloads (cliques, mix), else exit 1.
#
# BENCH_rt.json records the telemetry overhead (DESIGN.md §10):
# BM_SpecExecutorRoundTelemetry/2048 vs BM_SpecExecutorRound/2048 lands in
# doc["telemetry_overhead"], with two sentinels:
#   * enabled-path budget — overhead > TELEMETRY_OVERHEAD_MAX (default 0.10)
#     exits 1. The budget defends an ABSOLUTE cost (~2-3 ns per executed
#     task for the counters + work histogram); it is expressed as a ratio
#     of the 2048-task round, so every round speedup shrinks the
#     denominator and inflates the reading. The software-pipelined round
#     (DESIGN.md §12) is 2-2.8x faster than the round the original 3%
#     figure was calibrated against — the same per-task cost now reads
#     7-8% (±1% probe noise) — hence 0.10. The gate exists to catch
#     order-of-magnitude mistakes (e.g. a clock read per task), not
#     single-percent drift;
#   * disabled-path guard — with a baseline, the BM_SpecExecutorRound/2048
#     median regressing more than TELEMETRY_DISABLED_REGRESSION_MAX
#     (default 0.03) vs that baseline exits 1 (telemetry off must stay free).
# The enabled-path delta is a few percent — below run-to-run drift on a busy
# host — so it gets its own measurement: BENCH_OVERHEAD_PROBES (default 7)
# short invocations of just the two executor-round benches, compared
# pairwise within each invocation (back-to-back, so host drift cancels) and
# reduced with the median across probes.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BASELINE="${1:-}"
REPS="${BENCH_REPS:-3}"
MIN_TIME="${BENCH_MIN_TIME:-0.2}"

if [[ -n "${BUILD_DIR:-}" ]]; then
  BUILD="$BUILD_DIR"
  if [[ ! -d "$BUILD" ]]; then
    echo "run_bench.sh: BUILD_DIR=$BUILD does not exist" >&2
    exit 1
  fi
  cmake --build "$BUILD" --target perf_micro model_sampling sched_compare \
    -j"$(nproc)"
else
  BUILD="$ROOT/build-release"
  cmake --preset release -S "$ROOT" >/dev/null
  cmake --build --preset release --target perf_micro model_sampling \
    sched_compare -j"$(nproc)"
fi

run_one() {  # run_one <binary> <raw-json-out>
  "$BUILD/bench/$1" \
    --benchmark_format=json \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_repetitions="$REPS" \
    --benchmark_report_aggregates_only=true \
    > "$2"
}

RAW_RT="$(mktemp)"
RAW_MODEL="$(mktemp)"
RAW_SCHED="$(mktemp)"
PROBE_DIR="$(mktemp -d)"
trap 'rm -f "$RAW_RT" "$RAW_MODEL" "$RAW_SCHED"; rm -rf "$PROBE_DIR"' EXIT
run_one perf_micro "$RAW_RT"
run_one model_sampling "$RAW_MODEL"

# Scheduler-backend head-to-head (DESIGN.md §14): random vs chromatic on
# the RMAT / Barabási–Albert workloads. Lands in
# BENCH_rt.json["sched_compare"]; the chromatic sentinel below demands
# zero aborts AND time-to-solution no worse than the paper's random draw.
"$BUILD/bench/sched_compare" \
  --nodes="${SCHED_NODES:-4000}" \
  --threads="${SCHED_THREADS:-4}" \
  --reps="${SCHED_REPS:-3}" \
  --out="$RAW_SCHED"

# Paired telemetry-overhead probes (see header). Each probe repeats the
# pair three times and the reducer takes the per-side MIN within the probe
# (rejecting intra-probe scheduler spikes) before forming the ratio.
PROBES="${BENCH_OVERHEAD_PROBES:-7}"
for i in $(seq 1 "$PROBES"); do
  "$BUILD/bench/perf_micro" \
    --benchmark_filter='^BM_SpecExecutorRound(Telemetry)?/2048$' \
    --benchmark_format=json \
    --benchmark_min_time="${BENCH_OVERHEAD_MIN_TIME:-0.1}" \
    --benchmark_repetitions=3 \
    > "$PROBE_DIR/probe_$i.json" 2>/dev/null
done

python3 - "$RAW_RT" "$ROOT/BENCH_rt.json" "$BASELINE" "$PROBE_DIR" \
  "$RAW_SCHED" <<'EOF'
import json
import sys

raw_path, out_path, baseline_path = sys.argv[1], sys.argv[2], sys.argv[3]
doc = json.load(open(raw_path))
doc["generated_by"] = "scripts/run_bench.sh"

ctx = doc.get("context", {})
if ctx.get("optipar_ndebug") != "1" or ctx.get("optipar_build_type") in (
        None, "", "debug"):
    sys.exit(f"run_bench.sh: refusing to record {out_path}: binary context "
             f"optipar_build_type={ctx.get('optipar_build_type')!r} "
             f"optipar_ndebug={ctx.get('optipar_ndebug')!r} is not an "
             "optimized NDEBUG build")

# google-benchmark populates context.library_build_type with the installed
# libbenchmark's own build flavor, which reads as if OUR binary were a
# debug build. Keep the library's value under an honest name and make the
# canonical key describe the optipar binary (already verified above).
ctx["benchmark_library_build_type"] = ctx.get("library_build_type")
ctx["library_build_type"] = ctx.get("optipar_build_type")

def comparable(b):
    # With aggregate reporting, compare medians only (means/stddev/cv are
    # not meaningful as ratios).
    agg = b.get("aggregate_name")
    return "real_time" in b and (agg is None or agg == "median")

if baseline_path:
    base = json.load(open(baseline_path))
    base_times = {b["name"]: b["real_time"] for b in base.get("benchmarks", [])
                  if comparable(b)}
    for b in doc.get("benchmarks", []):
        name = b.get("name")
        if comparable(b) and name in base_times and b.get("real_time"):
            b["baseline_real_time"] = base_times[name]
            b["speedup"] = round(base_times[name] / b["real_time"], 3)
    doc["baseline_context"] = base.get("context", {})

# Telemetry overhead (DESIGN.md §10): enabled vs disabled on the
# steady-state 2048-task round, measured by the paired probes (median of
# within-invocation ratios — drift-robust), plus the disabled-path
# regression guard on the main pass's median.
import glob
import os

probe_dir = sys.argv[4]

def median_of(prefix):
    for b in doc.get("benchmarks", []):
        if (b.get("run_name", b.get("name", "")) == prefix and
                b.get("aggregate_name", "median") == "median" and
                b.get("real_time")):
            return b["real_time"]
    return None

ratios = []
for path in sorted(glob.glob(os.path.join(probe_dir, "probe_*.json"))):
    probe = json.load(open(path))
    times = {}
    for b in probe.get("benchmarks", []):
        if b.get("run_type") == "iteration" and "real_time" in b:
            name = b.get("run_name", b.get("name", ""))
            times.setdefault(name, []).append(b["real_time"])
    d = times.get("BM_SpecExecutorRound/2048")
    e = times.get("BM_SpecExecutorRoundTelemetry/2048")
    if d and e:
        ratios.append(min(e) / min(d) - 1.0)

failures = []
disabled = median_of("BM_SpecExecutorRound/2048")
enabled = median_of("BM_SpecExecutorRoundTelemetry/2048")
if ratios:
    overhead = sorted(ratios)[len(ratios) // 2]
    budget = float(os.environ.get("TELEMETRY_OVERHEAD_MAX", "0.10"))
    doc["telemetry_overhead"] = {
        "bench": "BM_SpecExecutorRound/2048",
        "overhead": round(overhead, 4),
        "budget": budget,
        "probe_ratios": [round(r, 4) for r in ratios],
        "disabled_real_time": disabled,
        "enabled_real_time": enabled,
    }
    if overhead > budget:
        failures.append(f"telemetry-enabled round is {overhead:.1%} slower "
                        f"than disabled (budget {budget:.0%}, median of "
                        f"{len(ratios)} paired probes)")
else:
    failures.append("telemetry-overhead probes produced no "
                    "SpecExecutorRound/2048 pairs")

if baseline_path and disabled:
    # Aggregate baseline entries carry the "_median" suffix in "name";
    # single-rep baselines use the bare run name.
    base_disabled = base_times.get(
        "BM_SpecExecutorRound/2048_median",
        base_times.get("BM_SpecExecutorRound/2048"))
    if base_disabled:
        regression = disabled / base_disabled - 1.0
        guard = float(os.environ.get(
            "TELEMETRY_DISABLED_REGRESSION_MAX", "0.03"))
        doc.setdefault("telemetry_overhead", {})["disabled_vs_baseline"] = (
            round(regression, 4))
        if regression > guard:
            failures.append(
                f"telemetry-off round regressed {regression:.1%} vs the "
                f"baseline (guard {guard:.0%}) — the disabled path must "
                "stay free")

# Scheduler head-to-head + chromatic sentinel (DESIGN.md §14). The
# chromatic backend's contract is structural (a proper coloring admits no
# same-round conflict), so aborts==0 is exact on EVERY workload. The tts
# bound is gated on the coloring workloads only: there random re-executes
# most of each round (conflict ratio > 0.9). The margin is thin since
# aborts became return values: at the default 4,000 nodes on a 4-CPU host
# chromatic won R-MAT coloring by 1.18x and lost BA coloring (21.8 vs
# 17.7 ms), so this gate fails there (ROADMAP item 5). On the
# moderate-conflict MIS workloads chromatic is round-bound (one color
# class per round) and 7-10x slower — recorded, not gated.
# SCHED_TTS_SLACK (default 1.0) exists for noisy hosts.
import os as _os

sched = json.load(open(sys.argv[5]))
doc["sched_compare"] = sched
slack = float(_os.environ.get("SCHED_TTS_SLACK", "1.0"))
for wl, cells in sched.get("workloads", {}).items():
    chromatic, random_ = cells.get("chromatic"), cells.get("random")
    if not chromatic or not random_:
        failures.append(f"sched_compare/{wl}: missing backend cell")
        continue
    if chromatic["aborted"] != 0:
        failures.append(f"sched_compare/{wl}: chromatic aborted "
                        f"{chromatic['aborted']} tasks (must be 0)")
    if (wl.endswith("-coloring") and
            chromatic["time_ms"] > random_["time_ms"] * slack):
        failures.append(
            f"sched_compare/{wl}: chromatic tts {chromatic['time_ms']:.1f} "
            f"ms exceeds random {random_['time_ms']:.1f} ms x {slack}")
    for name, cell in cells.items():
        if not cell.get("correct", False):
            failures.append(f"sched_compare/{wl}/{name}: incorrect answer")

json.dump(doc, open(out_path, "w"), indent=1)
print(f"wrote {out_path}")
for wl, cells in sched.get("workloads", {}).items():
    r, c = cells.get("random", {}), cells.get("chromatic", {})
    if r and c and c["time_ms"] > 0:
        print(f"  sched_compare {wl:15s} random {r['time_ms']:>8.1f} ms "
              f"(aborted {r['aborted']}) -> chromatic {c['time_ms']:>8.1f} "
              f"ms (aborted {c['aborted']}, "
              f"{r['time_ms'] / c['time_ms']:.2f}x)")
for b in doc.get("benchmarks", []):
    if "speedup" in b:
        print(f"  {b['name']:45s} {b['baseline_real_time']:>12.0f} ns -> "
              f"{b['real_time']:>12.0f} ns   {b['speedup']:.2f}x")
to = doc.get("telemetry_overhead")
if to and "overhead" in to:
    print(f"  telemetry overhead on {to['bench']}: {to['overhead']:+.1%} "
          f"(budget {to['budget']:.0%}, median of {len(to['probe_ratios'])} "
          "paired probes)")
if failures:
    sys.exit("run_bench.sh: telemetry/scheduler sentinel tripped:\n  "
             + "\n  ".join(failures))
EOF

python3 - "$RAW_MODEL" "$ROOT/BENCH_model.json" <<'EOF'
import json
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
doc = json.load(open(raw_path))
doc["generated_by"] = "scripts/run_bench.sh"

ctx = doc.get("context", {})
if ctx.get("optipar_ndebug") != "1" or ctx.get("optipar_build_type") in (
        None, "", "debug"):
    sys.exit(f"run_bench.sh: refusing to record {out_path}: binary context "
             f"optipar_build_type={ctx.get('optipar_build_type')!r} "
             f"optipar_ndebug={ctx.get('optipar_ndebug')!r} is not an "
             "optimized NDEBUG build")

# Same context fix-up as BENCH_rt.json: library_build_type must describe
# the optipar binary, not the installed libbenchmark.
ctx["benchmark_library_build_type"] = ctx.get("library_build_type")
ctx["library_build_type"] = ctx.get("optipar_build_type")

# Sweeps-to-epsilon per workload, from the deterministic "sweeps" counter
# (identical across repetitions; any aggregate or plain entry will do —
# run_name is the name without the aggregate suffix).
sweeps = {}
for b in doc.get("benchmarks", []):
    name = b.get("run_name", b.get("name", ""))
    if name.startswith("BM_SweepsToEpsilon/") and b.get("sweeps"):
        sweeps[name.split("/")[1]] = b["sweeps"]

sentinel = {}
failures = []
for wl in ("cliques", "mix"):
    plain, adaptive = sweeps.get(f"plain_{wl}"), sweeps.get(f"adaptive_{wl}")
    if not plain or not adaptive:
        failures.append(f"missing sweeps counters for workload {wl!r}")
        continue
    ratio = plain / adaptive
    sentinel[wl] = {"plain_sweeps": plain, "adaptive_sweeps": adaptive,
                    "reduction": round(ratio, 2)}
    if ratio < 2.0:
        failures.append(f"{wl}: adaptive used {adaptive:.0f} sweeps vs plain "
                        f"{plain:.0f} ({ratio:.2f}x < 2x reduction floor)")
doc["adaptive_sentinel"] = sentinel

json.dump(doc, open(out_path, "w"), indent=1)
print(f"wrote {out_path}")
for wl, s in sentinel.items():
    print(f"  {wl:10s} plain {s['plain_sweeps']:>7.0f} sweeps -> adaptive "
          f"{s['adaptive_sweeps']:>7.0f}   {s['reduction']:.2f}x fewer")
if failures:
    sys.exit("run_bench.sh: adaptive-engine regression sentinel tripped:\n  "
             + "\n  ".join(failures))
EOF
