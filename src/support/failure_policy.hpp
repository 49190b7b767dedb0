// Failure-handling tunables for the speculative runtime (DESIGN.md §8).
// The paper treats task aborts (conflict ratio r̄(m)) as the routine,
// *benign* failure mode; FailurePolicy governs everything beyond it: user
// operators that throw real exceptions, rollback inverses that fail, and
// lanes of the fork-join pool that die mid-round. Installing a policy on a
// SpeculativeExecutor switches it from the legacy behavior (rethrow the
// first operator error at round end) to retry/quarantine semantics: a
// faulted task is relaunched up to max_retries times with decorrelated-
// jitter backoff (measured in rounds — the executor's only clock), then
// moved to a dead-letter list so the round keeps committing.
#pragma once

#include <cstddef>
#include <cstdint>

namespace optipar {

struct FailurePolicy {
  /// Relaunch attempts for a task whose operator (or rollback) threw a
  /// non-AbortIteration exception, before it is quarantined. The first
  /// execution is attempt 1, so a task runs at most 1 + max_retries times.
  std::uint32_t max_retries = 3;

  /// Decorrelated-jitter backoff, measured in rounds: attempt k waits a
  /// uniform number of rounds in [base, min(cap, base * 3^(k-1))] before
  /// it becomes drawable again. Rounds are the executor's logical clock,
  /// so backoff is deterministic and replayable under a fixed fault seed.
  std::uint32_t backoff_base_rounds = 1;
  std::uint32_t backoff_cap_rounds = 16;

  /// Dead letters tolerated before the executor degrades to the
  /// single-lane serial path for the rest of the run (graceful
  /// degradation; SIZE_MAX = never degrade for this reason).
  std::size_t quarantine_budget = static_cast<std::size_t>(-1);

  /// Rounds in which a pool lane failed (an exception escaped the lane
  /// body itself, not a task operator) tolerated before degrading to the
  /// serial path.
  std::uint32_t max_pool_failures = 2;
};

}  // namespace optipar
