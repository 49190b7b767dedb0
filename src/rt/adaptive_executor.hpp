// The paper's full closed loop on the real runtime: a Controller decides
// each round's allocation m_t, the SpeculativeExecutor runs the round, and
// the observed conflict ratio feeds back. This is the "integration into the
// Galois system" the paper's conclusion describes, realized on our
// from-scratch substrate.
//
// Two entry points share one implementation:
//
//  * run_adaptive() — drive the loop to completion (the one-shot CLI form).
//  * AdaptiveRun    — the same loop as a RE-ENTRANT, job-scoped stepper
//    (DESIGN.md §13): construct it, then call step() once per round. The
//    serve daemon interleaves many AdaptiveRuns over one thread pool by
//    stepping them round-robin; every boundary between step() calls is a
//    cancellation point and a legal instant to checkpoint. run_adaptive is
//    literally `while (run.step()) {}`, so both forms execute byte-
//    identically.
//
// The loop also hosts the livelock watchdog (DESIGN.md §8): speculation can
// wedge — every round launches, every iteration aborts — when the conflict
// structure is denser than any allocation the controller can reach (e.g.
// tasks that acquire shared items in opposite orders and abort each other
// every round, or a pathological operator).
// After `watchdog_rounds` consecutive zero-progress rounds the loop
// degrades gracefully: it caps the controller at m = 1 (serial execution is
// conflict-free by construction, so if the workload CAN commit, it will).
// If even serial rounds make no progress for `serial_grace` more rounds,
// the run aborts with a structured LivelockError instead of spinning
// forever.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "control/controller.hpp"
#include "rt/spec_executor.hpp"
#include "sim/trace.hpp"
#include "support/deadline.hpp"
#include "verify/certifier.hpp"

namespace optipar {

class CheckpointManager;

/// Thrown by run_adaptive when even forced-serial execution makes no
/// progress — the workload is genuinely stuck (an operator that always
/// fails without a FailurePolicy to quarantine it, or a task set whose
/// tasks can never commit). Carries the diagnostic state at the stall.
class LivelockError final : public std::runtime_error {
 public:
  LivelockError(std::uint32_t stalled_rounds, std::size_t pending,
                std::size_t quarantined)
      : std::runtime_error(
            "livelock: " + std::to_string(stalled_rounds) +
            " consecutive zero-progress rounds at m=1 (pending=" +
            std::to_string(pending) +
            ", quarantined=" + std::to_string(quarantined) +
            "); no allocation can commit this work"),
        stalled_rounds_(stalled_rounds),
        pending_(pending),
        quarantined_(quarantined) {}

  [[nodiscard]] std::uint32_t stalled_rounds() const noexcept {
    return stalled_rounds_;
  }
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  [[nodiscard]] std::size_t quarantined() const noexcept {
    return quarantined_;
  }

  /// Everything the run recorded up to (and including) the stalling round.
  /// run_adaptive fills this before unwinding so a livelocked run is still
  /// diagnosable from --trace-out: the final round's StepRecord carries the
  /// stall, and the kLivelock telemetry event was emitted before the throw.
  Trace partial_trace;

 private:
  std::uint32_t stalled_rounds_;
  std::size_t pending_;
  std::size_t quarantined_;
};

/// Thrown at a round boundary when the run's deadline expired or its cancel
/// flag was raised (DESIGN.md §13). Before the throw the loop forces one
/// final snapshot when a CheckpointManager is attached, so an interrupted
/// job is resumable from the exact interruption point. Like LivelockError,
/// the partial trace rides along so the run stays diagnosable.
class JobInterrupted final : public std::runtime_error {
 public:
  enum class Reason : std::uint8_t {
    kDeadline,   ///< JobDeadline expired
    kCancelled,  ///< the cancel flag was raised
  };

  JobInterrupted(Reason reason, std::uint64_t rounds_done)
      : std::runtime_error(
            std::string(reason == Reason::kDeadline
                            ? "deadline exceeded"
                            : "cancelled") +
            " after " + std::to_string(rounds_done) + " rounds"),
        reason_(reason),
        rounds_done_(rounds_done) {}

  [[nodiscard]] Reason reason() const noexcept { return reason_; }
  [[nodiscard]] std::uint64_t rounds_done() const noexcept {
    return rounds_done_;
  }

  Trace partial_trace;

 private:
  Reason reason_;
  std::uint64_t rounds_done_;
};

struct AdaptiveRunConfig {
  std::uint32_t max_rounds = 1'000'000;  ///< safety stop
  /// Consecutive zero-progress rounds (launched > 0 but nothing committed
  /// or quarantined) before the watchdog forces m = 1. Zero disables it.
  std::uint32_t watchdog_rounds = 12;
  /// Additional zero-progress rounds tolerated AFTER degradation before
  /// the run aborts with LivelockError.
  std::uint32_t serial_grace = 8;
  /// Invoked before every round; applications use it to extend the lock
  /// table over items allocated by the previous round's commits (e.g.
  /// freshly created mesh triangles).
  std::function<void(SpeculativeExecutor&)> before_round;
  /// Crash-consistent checkpointing (DESIGN.md §11); non-owning, nullptr
  /// disables. With a manager attached, the loop first walks the recovery
  /// ladder (resuming mid-run when a valid snapshot exists), then journals
  /// every round's StepRecord write-ahead and snapshots on the manager's
  /// cadence — plus immediately when the livelock watchdog degrades the
  /// run, so a post-degradation crash resumes degraded. The schedule
  /// itself is unaffected: with no snapshot on disk the trace is
  /// byte-identical to an uncheckpointed run.
  CheckpointManager* checkpoint = nullptr;
  /// Wall-clock budget, checked at every round boundary (DESIGN.md §13).
  /// Expiry raises JobInterrupted{kDeadline} after a forced snapshot.
  /// The default-constructed deadline never expires.
  JobDeadline deadline;
  /// Cooperative cancellation flag (non-owning; nullptr disables). Raised
  /// by another thread, observed at the next round boundary: the loop
  /// forces a snapshot and raises JobInterrupted{kCancelled}.
  const std::atomic<bool>* cancel = nullptr;
  /// Post-run result certification (DESIGN.md §16; empty disables). Runs
  /// exactly once, at the first step() that observes the finished state —
  /// never on the round hot path — through verify::run_certifier, so the
  /// verdict lands in telemetry (kCertify event + "certify" span). The
  /// certificate is NOT escalated here: step() stays non-throwing on a
  /// refuted answer and hosts read certificate() to decide (the CLI exits
  /// 8, the daemon fails the job).
  verify::Certifier certifier;
};

/// The closed loop as a job-scoped stepper. The constructor walks the
/// recovery ladder (when a CheckpointManager is attached); each step()
/// checks the deadline/cancel interruption points, runs exactly one
/// executor round, feeds the controller, journals, and snapshots — the
/// identical sequence run_adaptive always performed. A host that owns
/// several AdaptiveRuns may interleave their step() calls freely: all
/// per-run state lives here, not in statics or the executor.
class AdaptiveRun {
 public:
  AdaptiveRun(SpeculativeExecutor& executor, Controller& controller,
              AdaptiveRunConfig config = {});

  AdaptiveRun(const AdaptiveRun&) = delete;
  AdaptiveRun& operator=(const AdaptiveRun&) = delete;

  /// Run one round. Returns false — without running anything — once the
  /// loop is finished (work drained or max_rounds reached). Throws
  /// LivelockError / JobInterrupted exactly as run_adaptive does.
  bool step();

  [[nodiscard]] bool finished() const;
  /// True when the constructor resumed from a snapshot rather than
  /// starting clean.
  [[nodiscard]] bool resumed() const noexcept { return resumed_; }
  /// The round index the next step() would execute.
  [[nodiscard]] std::uint32_t next_round() const noexcept { return round_; }

  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] Trace take_trace() noexcept { return std::move(trace_); }

  /// Force a snapshot of the current boundary state (no-op without a
  /// CheckpointManager). The serve daemon calls this when shutting down
  /// with jobs still active: the job is abandoned mid-run but resumes
  /// from this exact round after restart.
  void checkpoint_now();

  /// Run the configured certifier now if it has not run yet (idempotent;
  /// no-op without a certifier). step() calls this automatically when it
  /// observes the finished state; hosts that stop stepping early — e.g.
  /// on max_rounds — may call it directly.
  void ensure_certified();
  /// The post-run certificate: empty until the certifier has run (no
  /// certifier configured, or the run has not finished).
  [[nodiscard]] const std::optional<verify::Certificate>& certificate()
      const noexcept {
    return certificate_;
  }

 private:
  /// Deadline/cancel interruption point (top of step()).
  void check_interrupt();
  /// Snapshot the current boundary state (force = bypass the cadence).
  void snapshot_boundary(bool force);
  /// maybe_snapshot with a retroactive "checkpoint" span when a snapshot
  /// was actually written (checkpoint stalls must show in the timeline).
  void run_snapshot(CheckpointManager& cp, std::uint32_t round,
                    std::uint32_t next_m, bool force);

  SpeculativeExecutor& executor_;
  Controller& controller_;
  AdaptiveRunConfig config_;
  Trace trace_;
  telemetry::RuntimeTelemetry* tel_ = nullptr;
  std::uint32_t m_ = 0;
  std::uint32_t stalled_ = 0;  ///< consecutive zero-progress rounds
  bool degraded_ = false;
  bool resumed_ = false;
  std::uint32_t round_ = 0;  ///< next round to execute
  std::optional<verify::Certificate> certificate_;
};

/// Drive the executor to completion under the controller's allocation
/// policy; returns the per-round trace (same Trace type the simulator
/// produces, so all analysis code is shared).
[[nodiscard]] Trace run_adaptive(SpeculativeExecutor& executor,
                                 Controller& controller,
                                 const AdaptiveRunConfig& config = {});

}  // namespace optipar
