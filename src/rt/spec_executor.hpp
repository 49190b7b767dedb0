// Round-synchronous speculative executor — the substrate that stands in for
// the Galois runtime (see DESIGN.md §4 and §7). Each round, m tasks are
// drawn from the work-set (uniformly at random by default) and executed
// concurrently on the thread pool. An iteration acquires the abstract lock
// of every item it touches; on a conflict the later arrival's acquire
// returns false and the iteration aborts itself (the paper's model: an
// earlier task holding the data wins, and nobody ever waits). Aborted
// iterations roll back their undo log and requeue; committed iterations
// publish their newly created tasks. The per-round (launched, committed,
// aborted) statistics are exactly the observations Algorithm 1's
// controller needs.
//
// Hot-path structure (DESIGN.md §7): the work-set is sharded per lane with
// work stealing, so task draw and requeue never funnel through one global
// mutex; IterationContext objects live in a per-slot arena that survives
// across rounds (reset, not reallocated); and one fork-join dispatch per
// round runs both the speculative phase and the commit/requeue epilogue,
// separated by a barrier. With a single lane (pool of one worker) the
// draw/requeue sequence is byte-identical to a centralized worklist, which
// pins the determinism contract tests rely on.
//
// Failure hardening (DESIGN.md §8): beyond the benign AbortIteration, the
// executor treats real failures — operator exceptions, rollback-inverse
// exceptions, dead pool lanes — as first-class inputs. Installing a
// FailurePolicy switches from "rethrow the first error at round end" to
// retry-with-backoff and dead-letter quarantine; an optional FaultInjector
// fires deterministic, seeded faults at the execute/commit/rollback paths
// so chaos runs replay exactly.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "control/controller.hpp"
#include "rt/fault_injector.hpp"
#include "rt/item_lock.hpp"
#include "rt/undo_log.hpp"
#include "sched/scheduler.hpp"
#include "support/failure_policy.hpp"
#include "support/padded.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace optipar {

class SpinBarrier;

namespace telemetry {
class RuntimeTelemetry;
struct LaneTelemetry;
}  // namespace telemetry

namespace snapshot {
class Writer;
class Reader;
}  // namespace snapshot

/// Thrown by an operator to abort its iteration voluntarily (or from deep
/// inside a walk, as DMR's cavity hook does after a failed acquire). A lock
/// conflict itself never throws: acquire() returns false instead.
struct AbortIteration {};

/// Handle given to the user operator while one task executes speculatively.
class IterationContext {
 public:
  IterationContext(LockManager& locks, std::uint32_t iter_id) noexcept
      : locks_(locks), iter_id_(iter_id) {}

  IterationContext(const IterationContext&) = delete;
  IterationContext& operator=(const IterationContext&) = delete;

  /// Acquire the abstract lock for `item`. Re-entrant for items this
  /// iteration already holds. Returns false when another live iteration
  /// holds it: the iteration is then doomed and will not commit. The
  /// operator must return at once (`if (!ctx.acquire(x)) return;`) or
  /// throw AbortIteration: the item's owner may be running on another
  /// lane, so touching the item after a false acquire is a data race.
  /// Never throws on a conflict.
  [[nodiscard]] bool acquire(std::uint32_t item) {
    if (injector_ != nullptr) {
      // Injection site: a lock acquire that stalls (bounded, deterministic).
      injector_->maybe_stall(FaultSite::kLockAcquire, item, launch_);
    }
    if (try_acquire(item)) return true;
    doomed_ = true;
    return false;
  }

  /// Probe: false on a conflict, without dooming the iteration.
  [[nodiscard]] bool try_acquire(std::uint32_t item) {
    // The owner word says whether this iteration already holds the item,
    // so held_ records each item once without being searched.
    const LockResult result = unsync_ ? locks_.acquire_relaxed(item, iter_id_)
                                      : locks_.acquire(item, iter_id_);
    if (result == LockResult::kTaken) {
      held_.push_back(item);
      return true;
    }
    if (result == LockResult::kHeld) return true;
    if (tlm_ != nullptr) count_conflict(item);
    return false;
  }

  /// True once an acquire of this iteration has failed.
  [[nodiscard]] bool doomed() const noexcept { return doomed_; }

  /// Register the inverse of a speculative mutation (runs on abort).
  void on_abort(std::function<void()> inverse) {
    undo_.record(std::move(inverse));
  }

  /// Schedule new work, visible only if this iteration commits.
  void push(TaskId task) { pushed_.push_back(task); }

  /// The iteration's owner tag in the lock table: its slot in the round.
  [[nodiscard]] std::uint32_t iteration_id() const noexcept {
    return iter_id_;
  }
  [[nodiscard]] std::span<const std::uint32_t> held() const noexcept {
    return held_;
  }

 private:
  friend class SpeculativeExecutor;

  /// Re-arm a recycled arena context for a fresh iteration. held_, pushed_
  /// and the undo log keep their capacity — the whole point of the arena is
  /// that a steady-state round performs no allocation here.
  void reset(std::uint32_t iter_id) noexcept {
    iter_id_ = iter_id;
    committed_ = false;
    doomed_ = false;
    held_.clear();
    pushed_.clear();
    undo_.discard();
    fault_ = nullptr;
    rollback_fault_ = nullptr;
    tlm_ = nullptr;
    injector_ = nullptr;
    unsync_ = false;
  }

  /// Lane telemetry for a failed acquire (tlm_ attached).
  void count_conflict(std::uint32_t item) noexcept;
  void release_all();

  LockManager& locks_;
  std::uint32_t iter_id_;
  // Written only by the executing lane; other lanes read it after the
  // round barrier (or the serial tail after the join), so it needs no
  // atomic.
  bool committed_ = false;
  // Set by a failed acquire; the round then rolls the iteration back even
  // if the operator returns normally.
  bool doomed_ = false;
  std::vector<std::uint32_t> held_;
  std::vector<TaskId> pushed_;
  UndoLog undo_;
  // Failure records of the current attempt (read in the round's serial
  // tail): a non-Abort exception out of the operator, and a RollbackError
  // out of the (completed, two-phase) unwind.
  std::exception_ptr fault_;
  std::exception_ptr rollback_fault_;
  // Executing lane's telemetry block (DESIGN.md §10); nullptr whenever
  // telemetry is detached, so every counting site is one branch.
  telemetry::LaneTelemetry* tlm_ = nullptr;
  FaultInjector* injector_ = nullptr;  // the executor's, while one is attached
  // The launch's (round << 32 | slot): keys the lock-acquire stall, so every
  // round of a chaos run draws a fresh set of stalls.
  std::uint64_t launch_ = 0;
  // Single-lane fast path (DESIGN.md §12): when set, lock transitions use
  // the relaxed CAS-free variants — legal only while no other thread can
  // observe the lock table.
  bool unsync_ = false;
};

/// The user operator: process one task inside a speculative iteration. It
/// must acquire() every item it reads or writes, return as soon as an
/// acquire fails, and register undo actions for every mutation. Returning
/// normally requests a commit, granted unless an acquire failed.
using TaskOperator = std::function<void(TaskId, IterationContext&)>;

struct ExecutorTotals {
  std::uint64_t rounds = 0;
  std::uint64_t launched = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t retried = 0;      ///< faulted tasks requeued with backoff
  std::uint64_t quarantined = 0;  ///< tasks moved to the dead-letter list

  [[nodiscard]] double wasted_fraction() const noexcept {
    return launched == 0
               ? 0.0
               : static_cast<double>(aborted) / static_cast<double>(launched);
  }
};

// WorklistPolicy (how the random backend draws) lives in
// sched/scheduler.hpp next to the Backend selector; it is re-exported into
// namespace optipar from there.

/// Everything that shapes how rounds are scheduled, in one bag (DESIGN.md
/// §14). Non-random backends require worklist == kRandom: the worklist
/// policy is a *random-backend* draw knob, and combining it with
/// chromatic has no meaning.
struct RoundOptions {
  WorklistPolicy worklist = WorklistPolicy::kRandom;
  sched::Backend scheduler = sched::Backend::kRandom;
};

/// Round execution knobs (DESIGN.md §12).
struct PipelineConfig {
  /// Upper bound on concurrent lanes per round. 0 (the default) caps at
  /// the host's effective concurrency: a lane that cannot physically run
  /// buys nothing but barrier stalls and context switches, so the
  /// executor never oversubscribes by default. Tests that choreograph
  /// cross-lane interleavings (barriers inside operators, injected lane
  /// deaths) set an explicit lane count to force concurrency back on.
  std::size_t max_lanes = 0;
  /// Use the CAS-free single-lane specialization whenever a round runs on
  /// one lane. The schedule is byte-identical either way; disabling it
  /// exists for the fast-vs-generic differential tests.
  bool single_lane_fast_path = true;
};

class SpeculativeExecutor {
 public:
  /// A task retired to the dead-letter list after exhausting its retry
  /// budget (FailurePolicy::max_retries).
  struct DeadLetter {
    TaskId task = 0;
    std::uint32_t attempts = 0;  ///< executions performed (all failed)
    std::string error;           ///< what() of the final failure
  };

  /// `items` sizes the lock table (growable between rounds via grow_items);
  /// `options` selects the scheduler backend and its draw policy (DESIGN.md
  /// §14). Throws std::invalid_argument for meaningless combinations
  /// (non-random backend with a non-kRandom worklist policy).
  SpeculativeExecutor(ThreadPool& pool, std::size_t items, TaskOperator op,
                      std::uint64_t seed, const RoundOptions& options = {});

  /// Seed the work-set.
  void push_initial(std::span<const TaskId> tasks);

  /// Required before any push under WorklistPolicy::kPriority. Maps a task
  /// to its draw priority (smaller = sooner); the scheduler evaluates it at
  /// push and requeue time.
  void set_priority_function(std::function<std::uint64_t(TaskId)> fn);

  /// Required before any push under the chromatic backend (and before
  /// load_state, which recomputes footprints): declares every item a
  /// task's operator may acquire. Throws std::logic_error on any other
  /// backend.
  void set_footprint_function(sched::FootprintFn fn);

  /// Chromatic backend: drop the standing coloring and recolor all pending
  /// tasks with fresh footprints. Dynamic apps whose operators change task
  /// neighborhoods (contraction, refinement) call this between rounds; a
  /// no-op on other backends. Call between rounds only.
  void invalidate_schedule();

  [[nodiscard]] sched::Backend scheduler_backend() const noexcept {
    return sched_->backend();
  }
  [[nodiscard]] sched::Scheduler& scheduler() noexcept { return *sched_; }

  /// Install retry/quarantine failure handling (DESIGN.md §8). Without a
  /// policy the executor keeps the legacy contract: the first non-Abort
  /// operator error is rethrown at round end and faulted tasks requeue
  /// unconditionally. Call between rounds only.
  void set_failure_policy(const FailurePolicy& policy) { policy_ = policy; }
  [[nodiscard]] const std::optional<FailurePolicy>& failure_policy()
      const noexcept {
    return policy_;
  }

  /// Configure the round execution (DESIGN.md §12). Call between rounds
  /// only.
  void set_pipeline(const PipelineConfig& config) noexcept {
    pipeline_ = config;
  }
  [[nodiscard]] const PipelineConfig& pipeline() const noexcept {
    return pipeline_;
  }

  /// Attach a deterministic fault injector (non-owning; nullptr detaches).
  /// Injection points: operator throw/delay per attempt, rollback-inverse
  /// throw, lock-acquire stall, and pool-lane death. Call between rounds.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }

  /// Attach a telemetry sink (non-owning; nullptr detaches). Call between
  /// rounds only. With a sink attached the executor records per-lane
  /// counters, phase times, a work histogram, and structured trace events;
  /// detached (the default) every instrumentation site reduces to one
  /// pointer test, and the schedule is byte-identical either way — the
  /// sink never influences draws, conflicts, or requeues (DESIGN.md §10).
  void set_telemetry(telemetry::RuntimeTelemetry* sink);
  [[nodiscard]] telemetry::RuntimeTelemetry* telemetry() const noexcept {
    return telemetry_;
  }

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] bool done() const { return pending() == 0; }

  /// Extend the lock table (e.g. after the mesh allocated new triangles).
  void grow_items(std::size_t items) { locks_.grow(items); }

  /// Run one optimistic round with (up to) m concurrent tasks. Aborted
  /// tasks are rolled back and requeued; committed tasks' pushes join the
  /// work-set. Returns the round's statistics.
  RoundStats run_round(std::uint32_t m);

  [[nodiscard]] const ExecutorTotals& totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] LockManager& locks() noexcept { return locks_; }

  /// Quarantined tasks, in retirement order.
  [[nodiscard]] const std::vector<DeadLetter>& dead_letters() const noexcept {
    return dead_letters_;
  }
  /// Tasks currently waiting out a retry backoff (still counted pending).
  [[nodiscard]] std::size_t deferred_count() const noexcept {
    return deferred_.size();
  }
  /// True once the executor has fallen back to the single-lane serial path
  /// (repeated pool-lane failure or quarantine-budget exhaustion).
  [[nodiscard]] bool serial_degraded() const noexcept {
    return serial_fallback_;
  }
  /// Rounds in which a pool lane died (exception outside any task).
  [[nodiscard]] std::uint32_t pool_failures() const noexcept {
    return pool_failures_;
  }
  /// Rounds started so far — the executor's logical clock for backoff.
  [[nodiscard]] std::uint64_t round_index() const noexcept {
    return round_index_;
  }

  /// Checkpoint hooks (DESIGN.md §11). Between rounds the executor's future
  /// behavior is fully determined by the work-set, the draw RNG streams,
  /// the round clock, and the failure-hardening ledgers — save_state
  /// captures exactly that set, and load_state rebuilds it so that every
  /// subsequent run_round draws, backs off, and quarantines
  /// byte-identically to the uninterrupted run. The snapshot leads with a
  /// shape header (seed derivative, shard count, worklist policy, conflict
  /// rule, backend); load_state throws SnapshotError{kMismatch} when the receiving executor
  /// was constructed differently, rather than resuming a run that would
  /// silently diverge. Configuration that cannot be serialized (the
  /// operator, priority function, failure policy, injector, telemetry) must
  /// be reinstalled by the host before load_state. Call between rounds only.
  void save_state(snapshot::Writer& out) const;
  void load_state(snapshot::Reader& in);

 private:
  /// A faulted task waiting out its backoff (due_round is absolute).
  struct Deferred {
    std::uint64_t due_round = 0;
    TaskId task = 0;
  };

  void record_round_error() noexcept;

  /// True when a FailurePolicy absorbs faults (retry/quarantine) instead
  /// of the legacy round-end rethrow.
  [[nodiscard]] bool absorbs_faults() const noexcept {
    return policy_.has_value();
  }
  /// Attempt number the next execution of `task` would be (1 + failures).
  [[nodiscard]] std::uint32_t attempt_of(TaskId task) const noexcept;
  /// Deterministic decorrelated-jitter backoff, in rounds.
  [[nodiscard]] std::uint64_t backoff_rounds(TaskId task,
                                             std::uint32_t attempt) const;
  /// Move deferred tasks whose backoff expired back into the work-set.
  void release_due_deferred();
  /// Serial per-round fault handling: retry-or-quarantine every faulted
  /// slot (ascending slot order — deterministic), update stats/dead list.
  void process_faulted_slots(RoundStats& stats,
                             std::vector<std::size_t>& slots);
  /// Serial recovery after a pool-lane death: finish un-finalized slots,
  /// recount launched/committed, requeue drawn-but-unexecuted tasks, and
  /// splice dead lanes' buffered requeues. Returns faulted slots found.
  void salvage_round(RoundStats& stats, std::size_t take, std::size_t lanes,
                     std::vector<std::size_t>& faulted_slots);
  /// Splice tasks into the work-set per policy (serial tail only).
  void requeue_tasks(std::span<const TaskId> tasks);

  /// Everything a round lane needs that is fixed before dispatch. One
  /// instance per round, shared read-only by all lanes.
  struct RoundPlan {
    std::size_t take = 0;       ///< tickets (slots) this round
    std::size_t chunk = 0;      ///< ticket-claim chunk size
    bool centralized = false;   ///< active set materialized by begin_round
    bool absorbing = false;
    bool inject_lane_faults = false;
  };

  /// The round body one lane executes: chunked draw + speculative
  /// execution, round barrier, then the commit/requeue epilogue.
  /// kSerial == true is the single-lane fast path (DESIGN.md §12): plain
  /// cursors instead of shared atomics, no barrier, and relaxed CAS-free
  /// lock transitions — while keeping the draw order, telemetry
  /// sampling, and epilogue sequence byte-identical to a one-lane generic
  /// round.
  template <bool kSerial>
  void round_lane(std::size_t lane, const RoundPlan& plan,
                  SpinBarrier* barrier);

  ThreadPool& pool_;
  LockManager locks_;
  TaskOperator op_;
  Rng rng_;                       // lane 0's draw stream (the seeded stream)
  std::vector<Rng> helper_rngs_;  // lanes 1..S-1, derived from the seed
  WorklistPolicy policy_wl_;

  // The pluggable work-set + draw stage (DESIGN.md §14). Shard count is
  // fixed at construction to the pool's worker count; the random backend
  // shards per lane, the chromatic backend is centralized.
  std::size_t shard_count_;
  std::unique_ptr<sched::Scheduler> sched_;

  // Context arena: slot s of every round reuses arena_[s].
  std::vector<std::unique_ptr<IterationContext>> arena_;

  // Per-round scratch, reused across rounds. active_[slot] is written by
  // the drawing lane in the speculative phase and read after the round
  // barrier. Lane-indexed buffers/counters are padded so that commit and
  // requeue accounting never false-shares.
  std::vector<TaskId> active_;
  std::vector<Padded<std::vector<TaskId>>> lane_requeue_;
  std::vector<Padded<std::uint32_t>> lane_committed_;
  alignas(kCacheLine) std::atomic<std::size_t> draw_cursor_{0};
  alignas(kCacheLine) std::atomic<std::size_t> finalize_cursor_{0};
  std::exception_ptr round_error_;  // first non-Abort operator exception
  std::mutex round_error_mutex_;

  // --- failure hardening (DESIGN.md §8) ----------------------------------
  FaultInjector* injector_ = nullptr;  // non-owning; nullptr = no injection
  std::optional<FailurePolicy> policy_;
  std::uint64_t backoff_seed_;  // jitter PRF seed (derived from `seed`)
  std::uint64_t round_index_ = 0;
  // Per-slot stamps: executed (speculative phase ran commit-or-rollback)
  // and finalized (epilogue processed it). A slot whose stamp is stale
  // after a lane death is salvaged serially.
  std::vector<std::uint64_t> slot_executed_;
  std::vector<std::uint64_t> slot_finalized_;
  std::vector<Padded<std::vector<std::size_t>>> lane_faulted_;
  std::vector<Padded<std::exception_ptr>> lane_pool_fault_;
  std::unordered_map<TaskId, std::uint32_t> failure_attempts_;
  std::vector<Deferred> deferred_;
  std::vector<DeadLetter> dead_letters_;
  std::uint32_t pool_failures_ = 0;
  bool serial_fallback_ = false;
  // True while the current round sentinel-fills active_ (injector or policy
  // installed), so salvage can tell drawn slots from never-drawn ones.
  bool round_hardened_ = false;

  PipelineConfig pipeline_;  // lane cap and fast-path switch (§12)

  // --- telemetry (DESIGN.md §10) -----------------------------------------
  // Non-owning; nullptr = detached (the default). slot_lane_ stamps which
  // lane executed each slot so the serial tail can attribute retries and
  // quarantines back to the executing lane; only maintained while attached
  // AND fault absorption is on (its sole consumer is the retry/quarantine
  // path, and plain rounds skip the stamping cost).
  telemetry::RuntimeTelemetry* telemetry_ = nullptr;
  std::vector<std::uint32_t> slot_lane_;
  TimerAccumulator* acc_round_ = nullptr;    // "executor.round"
  TimerAccumulator* acc_salvage_ = nullptr;  // "executor.salvage"

  ExecutorTotals totals_;
};

}  // namespace optipar
