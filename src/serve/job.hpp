// Job model of the serve daemon (DESIGN.md §13). A Job is the unit of
// admission, scheduling, cancellation, and crash recovery. Durability rides
// on the write-ahead jobs journal (snapshot::RoundJournal reused at job
// granularity): a kSubmitted record is fsynced BEFORE the client sees
// kJobAccepted, and a kFinished record is fsynced when the job reaches a
// terminal state — so after any crash the set {submitted} \ {finished}, in
// journal order, is exactly the set of jobs the restarted daemon must
// re-admit, and each of those resumes from its own per-job checkpoint
// directory via the PR-5 recovery ladder.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/wire.hpp"

namespace optipar::serve {

/// Everything needed to (re)construct a job's run, durable in the WAL.
struct JobSpec {
  std::uint64_t id = 0;
  JobKind kind = JobKind::kRun;
  std::string graph;
  std::string controller = "hybrid";
  double rho = 0.25;
  std::uint64_t seed = 1;
  std::uint32_t steps = 100000;  ///< run: max rounds; estimate: trials
  std::uint32_t m0 = 0;          ///< 0 = controller default
  std::uint32_t m_max = 0;       ///< 0 = controller default
  std::int64_t timeout_ms = 0;   ///< 0 = no deadline
  std::uint32_t checkpoint_every = 8;
  /// Scheduler backend name ("random" or "chromatic"); validated at
  /// admission against sched::parse_backend.
  std::string scheduler = "random";
  /// Certify the drained run before the job goes terminal (run jobs only;
  /// the verdict is durable in the kFinished record).
  bool verify = false;
};

/// Terminal summary, durable in the WAL's kFinished record so status
/// queries survive a restart without re-running anything.
struct JobResult {
  std::uint64_t rounds = 0;
  std::uint64_t committed = 0;
  std::uint64_t pending = 0;
  double wasted = 0.0;
  double mean_r = 0.0;
  std::uint32_t mu = 0;  ///< estimate jobs
  std::string error;     ///< kFailed detail
  /// Certification verdict: 0 = not requested, 1 = ok, 2 = refuted.
  std::uint8_t verified = 0;
  std::string cert;  ///< certificate describe() text when verified != 0
};

/// One job's live record. `state` and `cancel` are the only fields touched
/// across threads (connection threads flip cancel / read state; the
/// scheduler owns everything else), so they are atomics; the rest is
/// written by the scheduler and read by connection threads under the
/// server's job mutex.
struct Job {
  JobSpec spec;
  std::atomic<JobState> state{JobState::kQueued};
  std::atomic<bool> cancel{false};
  bool recovered = false;  ///< re-admitted from the WAL after a restart
  bool resumed = false;    ///< restored from a checkpoint after a restart
  JobResult result;

  // Lifecycle timestamps (monotonic_ns, this incarnation only — not in the
  // WAL). Written before the job becomes reachable by the scheduler
  // (submit) or by the scheduler thread itself (activate), so they need no
  // synchronization beyond the queue's publish. Zero = never reached. They
  // feed the serve latency histograms and the retroactive admission-wait /
  // WAL-fsync spans of the job's trace (DESIGN.md §15).
  std::uint64_t submit_ns = 0;     ///< admission accepted (WAL append start)
  std::uint64_t wal_fsync_ns = 0;  ///< kSubmitted record durable
  std::uint64_t activate_ns = 0;   ///< scheduler picked the job up
};

// ---------------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------------

enum class WalRecordKind : std::uint8_t { kSubmitted = 1, kFinished = 2 };

struct WalRecord {
  WalRecordKind kind = WalRecordKind::kSubmitted;
  JobSpec spec;          ///< kSubmitted
  std::uint64_t id = 0;  ///< kFinished
  JobState final_state = JobState::kDone;  ///< kFinished
  JobResult result;      ///< kFinished
};

[[nodiscard]] std::vector<std::byte> encode_wal_record(const WalRecord& rec);
/// Throws snapshot::SnapshotError{kMalformed} on a structurally invalid
/// record — the daemon treats its own WAL as untrusted input, like every
/// other on-disk artifact.
[[nodiscard]] WalRecord decode_wal_record(std::span<const std::byte> payload);

}  // namespace optipar::serve
