#!/usr/bin/env bash
# Build the concurrency-critical test binaries under ThreadSanitizer
# (CMake preset "tsan") and run them. Any data race, lock-order inversion,
# or racy signal in the fork-join pool, the sharded speculative executor,
# or the abstract lock table fails this script. test_verify drains all seven
# app kernels on a two-worker pool, so their abort paths run on two lanes;
# test_boruvka drains Boruvka on 2- and 4-worker pools, where a task reads
# its lightest neighbour's adjacency size under that neighbour's lock;
# test_telemetry drains with the conflict profiler attached on four lanes.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"

status=0
for bin in test_spec_executor test_executor_chaos test_thread_pool \
           test_item_lock test_deadline test_serve test_scheduler \
           test_verify test_boruvka test_telemetry chaos_test \
           pipeline_stress_test; do
  echo "== tsan: $bin =="
  if ! "build-tsan/tests/$bin"; then
    status=1
  fi
done

if [[ $status -eq 0 ]]; then
  echo "tsan: all concurrency test binaries clean"
fi
exit $status
