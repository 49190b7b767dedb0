// Pluggable round schedulers (DESIGN.md §14). A Scheduler owns the
// work-set and the round's draw stage of the speculative executor: which
// tasks become a round's active set, in what order, and where committed
// pushes / aborted requeues land. Two backends are provided:
//
//   * random    — the paper's scheduler: per-lane sharded worklists with a
//                 uniform random draw (plus the kFifo/kLifo/kPriority
//                 ablation policies). This is the seed behavior extracted
//                 behind the interface; single-lane draw sequences are
//                 byte-identical to the pre-refactor executor.
//   * chromatic — speculation-free color-class rounds (Rokos/Gorman/Kelly):
//                 the pending tasks' declared footprints are colored so
//                 that same-color tasks are pairwise disjoint, and a round
//                 executes only tasks of one color — zero aborts by
//                 construction (the executor downgrades conflict detection
//                 to a debug assert under this backend).
//
// Thread-safety contract: push/requeue/size/begin_round/save/load run only
// in the executor's serial sections (between rounds or in the serial
// tail); draw_span/splice are called concurrently by round lanes and must
// synchronize internally.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "support/rng.hpp"

namespace optipar {

namespace snapshot {
class Writer;
class Reader;
}  // namespace snapshot

using TaskId = std::uint64_t;

/// How a round's active tasks are drawn from the work-set (random backend).
/// The paper's model assumes kRandom; kFifo/kLifo exist for the
/// scheduling-policy ablation (they bias which conflicts are observed).
/// kPriority is an OBIM-style soft-priority scheduler: each round runs the
/// m smallest-priority tasks (per the installed priority function) — order
/// is best-effort, not a commit-order guarantee, so it suits unordered
/// algorithms that merely *benefit* from priority (e.g. SSSP relaxing near
/// the source first).
enum class WorklistPolicy { kRandom, kFifo, kLifo, kPriority };

namespace sched {

/// Scheduler backend selector, wired through RoundOptions, the CLI
/// (--scheduler=) and the serve job spec. The numeric values are part of
/// the snapshot shape header — append only. Value 2 (the retired relaxed
/// backend) is reserved: a snapshot carrying it fails the backend check.
enum class Backend : std::uint8_t {
  kRandom = 0,
  kChromatic = 1,
};

[[nodiscard]] const char* backend_name(Backend backend) noexcept;
/// Parse a CLI/wire backend name; nullopt for unknown names (the caller
/// owns the exit-2 / kBadRequest refusal).
[[nodiscard]] std::optional<Backend> parse_backend(std::string_view name);

/// Declares the abstract-lock footprint of a task: every item the operator
/// may acquire while executing it. Appends item ids to `out` (cleared by
/// the caller). Required by the chromatic backend before any push.
using FootprintFn = std::function<void(TaskId, std::vector<std::uint32_t>&)>;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual Backend backend() const noexcept = 0;

  /// Pending tasks owned by this scheduler (excludes the executor's
  /// deferred retries).
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// True when the active set is materialized up-front by begin_round
  /// (priority heap, color classes) instead of drawn
  /// incrementally by the lanes. Constant per backend instance.
  [[nodiscard]] virtual bool centralized() const noexcept = 0;

  /// True when a round can never observe a conflict by construction
  /// (chromatic). The executor downgrades conflict detection to a debug
  /// assert for such backends.
  [[nodiscard]] virtual bool zero_abort() const noexcept { return false; }

  /// Priority function (kPriority scheduling). Call between rounds only.
  virtual void set_priority_function(std::function<std::uint64_t(TaskId)> fn) {
    priority_fn_ = std::move(fn);
  }

  /// Error sink invoked INSIDE a catch block when a serial-path requeue
  /// swallows a priority-function failure (the task is kept with a
  /// degraded id-priority, and the error surfaces through the executor's
  /// round-error channel instead of being dropped).
  void set_error_sink(std::function<void()> sink) {
    error_sink_ = std::move(sink);
  }

  /// Seed the work-set (initial tasks, released deferred tasks). Serial.
  virtual void push(std::span<const TaskId> tasks) = 0;

  /// Return tasks to the work-set from the serial tail (aborted-task
  /// requeue after salvage). Must swallow priority-function failures via
  /// the error sink — a salvage path may never drop a task.
  virtual void requeue(std::span<const TaskId> tasks) = 0;

  /// Splice a lane's requeue buffer back into the work-set (parallel
  /// epilogue; thread-safe). Unlike requeue, exceptions propagate — the
  /// epilogue's catch converts them into a recorded pool fault and the
  /// serial tail re-splices the buffer.
  virtual void splice(std::size_t lane, std::span<const TaskId> tasks) = 0;

  /// Centralized draw: fill `active` with up to m tasks and return the
  /// count.
  virtual std::size_t begin_round(std::size_t m, std::vector<TaskId>& active);

  /// Distributed draw (non-centralized backends): fill out[0..n) from the
  /// work-set. Called concurrently per lane; the executor guarantees n
  /// never exceeds the tasks available at round start.
  virtual void draw_span(std::size_t lane, Rng& rng, TaskId* out,
                         std::size_t n);

  /// Serialize the backend's work-set state.
  virtual void save_state(snapshot::Writer& out) const = 0;
  virtual void load_state(snapshot::Reader& in) = 0;

 protected:
  std::function<std::uint64_t(TaskId)> priority_fn_;
  std::function<void()> error_sink_;
};

/// Backend construction knobs beyond the backend tag itself.
struct SchedulerConfig {
  WorklistPolicy worklist = WorklistPolicy::kRandom;
  std::size_t shard_count = 1;  ///< pool worker count (lanes)
  std::uint64_t seed = 0;       ///< executor seed (PRF derivations only)
};

[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    Backend backend, const SchedulerConfig& config);

}  // namespace sched
}  // namespace optipar
