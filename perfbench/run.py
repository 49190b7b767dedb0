#!/usr/bin/env python3
"""Certified-solve benchmark entry point.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--toy] [--corrupt]

Builds the benchmark (perfbench/CMakeLists.txt, Release) and the optipar
library from this checkout's sources into .bench_build/, then runs
solve_bench with the same arguments. With --trace 1 the Chrome trace of the
run is written to .bench_build/traces/<workload>-<seed>.json. The last line
of standard output is the result JSON; on any failure the script exits
non-zero without printing one.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 175


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "solve_bench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return BUILD / "solve_bench"


def trace_path(args):
    """The --trace-out path for a traced run, or None."""
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace", "0") == "0":
        return None
    out = ROOT / ".bench_build" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{opts.get('--workload', 'x')}-{opts.get('--seed', '0')}.json"


def main(args):
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    command = [str(binary), *args]
    trace = trace_path([a for a in args if a not in ("--toy", "--corrupt")])
    if trace is not None:
        command += ["--trace-out", str(trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: solve_bench exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print(f"run.py: solve_bench exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1
    print(proc.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
