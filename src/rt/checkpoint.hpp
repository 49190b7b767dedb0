// Crash-consistent checkpoint/restore for adaptive runs (DESIGN.md §11).
//
// Two cooperating artifacts live in the checkpoint directory:
//
//   journal.bin   — the write-ahead round journal: one framed, CRC-guarded
//                   StepRecord per completed round, appended and fsynced
//                   BEFORE any snapshot covering that round is written.
//   snap-a.bin /  — alternating full-state snapshots (versioned, CRC'd,
//   snap-b.bin      atomically renamed into place). A snapshot captures the
//                   executor (work-set, RNG streams, failure ledgers), the
//                   controller (via Controller::save_state), and the
//                   adaptive loop's own state (next m, watchdog counters).
//
// Recovery ladder (try_restore): the newest structurally valid snapshot
// whose run identity (graph fingerprint, controller name, executor shape)
// matches and whose rounds are fully covered by the journal wins; a corrupt
// or mismatched candidate falls back to the OTHER generation; if both fail,
// the run starts clean (journal rewound to empty). A damaged checkpoint is
// therefore always *detected* and degraded past — never silently loaded.
//
// Byte-identity contract: a run killed at any instant and resumed through
// try_restore replays rounds R..N exactly as the uninterrupted run executed
// them, and the first R journal records ARE the uninterrupted run's first R
// StepRecords — so the resumed trace equals the uninterrupted trace, byte
// for byte. The replay half of the contract is scoped to the runtime's
// deterministic single-lane configuration (one pool thread): multi-lane
// rounds distribute draw chunks through a racing ticket counter, so their
// forward schedule is timing-dependent with or without a checkpoint —
// restoration is still exact (the state IS the saved state), but the
// resumed schedule may legally differ, just as two uninterrupted multi-lane
// runs may. tests/test_checkpoint.cpp and scripts/run_crash.sh enforce
// byte-identity for every injected crash point at one lane.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "rt/spec_executor.hpp"
#include "sim/trace.hpp"
#include "support/snapshot/journal.hpp"
#include "support/snapshot/snapshot.hpp"

namespace optipar {

namespace telemetry {
class RuntimeTelemetry;
}  // namespace telemetry

class CsrGraph;

/// Deterministic identity of the input graph, embedded in every snapshot so
/// a checkpoint can never be restored against different data (CRC32 over
/// the node count and every adjacency list).
[[nodiscard]] std::uint64_t graph_fingerprint(const CsrGraph& graph);

/// Where a crash is injected, for the recovery tests. The process exits
/// with _Exit(137) at the chosen instant — no destructors, no flushes, like
/// a SIGKILL — after completing exactly the writes the real crash would
/// have completed.
enum class CrashPoint : std::uint32_t {
  kNone = 0,
  kMidJournalWrite,      ///< half a journal frame on disk (torn tail)
  kAfterJournalAppend,   ///< journal ahead of every snapshot
  kMidSnapshotWrite,     ///< snap tmp file torn; previous generation intact
  kBeforeSnapshotRename, ///< snap tmp complete but not yet visible
  kAfterSnapshotRename,  ///< snapshot fully committed
};

struct CheckpointConfig {
  std::string dir;               ///< checkpoint directory (must exist)
  std::uint32_t every = 8;       ///< snapshot cadence in rounds (>= 1)
  /// Crash injection (tests only): fire `crash_point` at the end of round
  /// `crash_round` (0-based loop round). kNone disables.
  CrashPoint crash_point = CrashPoint::kNone;
  std::uint32_t crash_round = 0;
};

/// Serialize a StepRecord as a journal payload / parse one back. Exposed
/// for the tests that inspect journals directly.
[[nodiscard]] std::vector<std::byte> encode_step(const StepRecord& rec);
[[nodiscard]] StepRecord decode_step(std::span<const std::byte> payload);

class CheckpointManager {
 public:
  /// Loop state that lives outside the executor/controller but must survive
  /// a crash: the allocation the next round will use, and the livelock
  /// watchdog's counters (DESIGN.md §8).
  struct LoopState {
    std::uint32_t next_m = 0;
    std::uint32_t stalled = 0;
    bool degraded = false;
    std::size_t degraded_at_step = static_cast<std::size_t>(-1);
  };

  /// What try_restore hands back on success: the loop resumes at round
  /// `rounds_done` with `loop`, and `replayed` are the journal's first
  /// `rounds_done` StepRecords — the resumed trace's prefix.
  struct ResumeState {
    std::uint64_t rounds_done = 0;
    LoopState loop;
    std::vector<StepRecord> replayed;
  };

  /// Opens (creating if absent) journal.bin under config.dir and runs its
  /// torn-tail recovery. Throws SnapshotError{kIo} when the directory is
  /// unusable and std::invalid_argument when config.every == 0.
  CheckpointManager(CheckpointConfig config, std::uint64_t fingerprint);

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Attach a telemetry sink (non-owning; nullptr detaches): checkpoint and
  /// recovery events plus the "checkpoint.save"/"checkpoint.restore"
  /// phase timers.
  void set_telemetry(telemetry::RuntimeTelemetry* sink);

  /// Walk the recovery ladder. On success the executor and controller have
  /// been loaded, the journal has been rewound to the snapshot's round
  /// count, and the returned state resumes the loop. On nullopt the run
  /// starts clean: nothing was loaded and the journal is empty.
  [[nodiscard]] std::optional<ResumeState> try_restore(
      SpeculativeExecutor& executor, Controller& controller);

  /// Write-ahead append of round `round`'s record. Crash points
  /// kMidJournalWrite / kAfterJournalAppend fire here.
  void on_round(std::uint32_t round, const StepRecord& rec);

  /// Periodic + forced snapshotting, called after round `round`'s record
  /// was journaled and the controller observed it. `rounds_done` is the
  /// number of completed rounds ( == journal records). Snapshot crash
  /// points fire here.
  void maybe_snapshot(std::uint32_t round,
                      const SpeculativeExecutor& executor,
                      const Controller& controller, const LoopState& loop,
                      std::uint64_t rounds_done, bool force);

  [[nodiscard]] const CheckpointConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::uint32_t snapshots_written() const noexcept {
    return snapshots_written_;
  }
  /// Diagnostics of the last try_restore: candidate snapshots that were
  /// present but rejected (corrupt / mismatched / uncovered), as
  /// "path: reason" strings, newest candidate first.
  [[nodiscard]] const std::vector<std::string>& rejected_candidates()
      const noexcept {
    return rejected_;
  }

  [[nodiscard]] std::string snapshot_path(char generation) const;
  [[nodiscard]] std::string journal_path() const;

  /// Remove a checkpoint directory's files — both snapshot generations,
  /// their staging tmp files and the journal — so nothing in `dir` can be
  /// resumed. Missing files are ignored; the directory itself stays.
  static void remove_files(const std::string& dir);

 private:
  void crash_if(CrashPoint point, std::uint32_t round);
  [[nodiscard]] std::vector<std::byte> build_snapshot(
      const SpeculativeExecutor& executor, const Controller& controller,
      const LoopState& loop, std::uint64_t rounds_done) const;

  CheckpointConfig config_;
  std::uint64_t fingerprint_;
  snapshot::RoundJournal journal_;
  char next_generation_ = 'a';  ///< generation the NEXT snapshot overwrites
  std::uint32_t snapshots_written_ = 0;
  std::vector<std::string> rejected_;
  telemetry::RuntimeTelemetry* telemetry_ = nullptr;
};

}  // namespace optipar
