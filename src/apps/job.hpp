// One speculative run as a job (DESIGN.md §13): the executor built from an
// AppSpec, the controller built by name, an optional CheckpointManager and
// the AdaptiveRun that steps them. `optipar_cli run|profile|metrics|chaos`,
// the certified harness and every serve run job build, step, certify and
// export a run through this one type. Each host keeps only what is its
// own: graph input and exit codes (CLI), the conflict profiler (profile),
// the fault injector and oracle (chaos), the WAL, job states and latency
// histograms (serve).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "apps/app_spec.hpp"
#include "control/controller.hpp"
#include "rt/adaptive_executor.hpp"
#include "rt/checkpoint.hpp"
#include "sched/scheduler.hpp"
#include "support/thread_pool.hpp"
#include "verify/certifier.hpp"

namespace optipar {

class MetricsRegistry;

namespace telemetry {
class RuntimeTelemetry;
}  // namespace telemetry

/// How a job's run ended. A livelock or an interruption is an outcome the
/// job records with its trace, not an exception its host must catch.
enum class JobOutcome : std::uint8_t {
  kDrained,    ///< the work-set emptied
  kRoundCap,   ///< max_rounds reached with work pending
  kLivelock,   ///< LivelockError: even serial rounds retired nothing
  kDeadline,   ///< JobInterrupted{kDeadline}
  kCancelled,  ///< JobInterrupted{kCancelled}
};

/// The executor seed of a run seeded with `seed`. `optipar_cli run` and
/// `profile`, serve run jobs and the certified harness all derive it here,
/// so one spec runs one schedule in every host (the serve smoke test's
/// CLI-vs-daemon byte identity rests on it).
[[nodiscard]] constexpr std::uint64_t run_executor_seed(
    std::uint64_t seed) noexcept {
  return seed * 11 + 3;
}

struct JobConfig {
  std::uint64_t seed = 0;  ///< executor seed; see run_executor_seed
  sched::Backend scheduler = sched::Backend::kRandom;
  std::string controller = "hybrid";  ///< a make_controller name
  ControllerParams params;
  std::uint32_t max_rounds = AdaptiveRunConfig{}.max_rounds;
  /// Wall-clock budget in ms, counted from when the executor is built (so
  /// setup does not eat it); 0 = none.
  std::int64_t timeout_ms = 0;
  const std::atomic<bool>* cancel = nullptr;  ///< non-owning
  /// Post-run certificate over the executor; empty disables. Runs once,
  /// when the run stops on its own: drained, capped or livelocked.
  std::function<verify::Certificate(SpeculativeExecutor&)> certifier;
  /// Attached to the executor and the checkpoint manager (non-owning),
  /// with the controller's ρ as its target.
  telemetry::RuntimeTelemetry* telemetry = nullptr;
  /// Crash-consistent checkpointing (DESIGN.md §11); empty disables.
  std::optional<CheckpointConfig> checkpoint;
  std::uint64_t fingerprint = 0;  ///< input identity, e.g. graph_fingerprint
  /// Resume from the directory's newest valid snapshot; a fresh run removes
  /// its checkpoint files first, never inheriting another run's state.
  bool resume = false;
};

class AppJob {
 public:
  /// Builds the executor (build_executor) and the controller (throws
  /// std::invalid_argument on an unknown name), opens the checkpoint
  /// directory, and constructs the AdaptiveRun, which walks the recovery
  /// ladder. The spec's state must outlive the job; the job keeps the
  /// spec's before_round.
  AppJob(ThreadPool& pool, const AppSpec& spec, JobConfig config);

  /// Run one round. Returns false, without running anything, once the job
  /// has an outcome. LivelockError and JobInterrupted become the outcome;
  /// any other exception (a poisoned operator, checkpoint I/O) propagates.
  bool step();
  /// step() until the job has an outcome, and return it.
  JobOutcome run();

  [[nodiscard]] SpeculativeExecutor& executor() noexcept { return *executor_; }
  [[nodiscard]] const std::optional<JobOutcome>& outcome() const noexcept {
    return outcome_;
  }
  /// The livelock or interruption message; empty for the other outcomes.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  /// Every round run so far, whatever the outcome.
  [[nodiscard]] const Trace& trace() const noexcept { return run_->trace(); }
  [[nodiscard]] bool resumed() const noexcept { return run_->resumed(); }
  [[nodiscard]] const std::optional<verify::Certificate>& certificate()
      const noexcept {
    return run_->certificate();
  }
  /// Force a snapshot at the current round boundary (no-op without a
  /// checkpoint).
  void checkpoint_now() { run_->checkpoint_now(); }

  /// The run's metrics document: the telemetry export (when attached), the
  /// executor totals (rounds, launched, committed, aborted, retried,
  /// quarantined, dead letters, pool failures, serial degradation, wasted
  /// fraction) and the certificate when there is one.
  void export_metrics(MetricsRegistry& registry) const;
  /// The run's trace JSONL: one line per round, then the telemetry events
  /// (drained from the attached sink).
  void write_trace_jsonl(std::ostream& os);

 private:
  std::unique_ptr<SpeculativeExecutor> executor_;
  std::unique_ptr<Controller> controller_;
  std::unique_ptr<CheckpointManager> checkpoint_;
  std::unique_ptr<AdaptiveRun> run_;
  std::optional<JobOutcome> outcome_;
  std::string error_;
};

}  // namespace optipar
