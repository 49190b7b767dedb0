#include "rt/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "graph/csr_graph.hpp"
#include "support/telemetry/telemetry.hpp"
#include "support/timer.hpp"

namespace optipar {

std::uint64_t graph_fingerprint(const CsrGraph& graph) {
  // CRC32 over (n, every adjacency list in node order), then widened with
  // the edge count so the fingerprint distinguishes graphs whose 32-bit
  // CRCs collide on structure but differ in size.
  const std::uint32_t n = graph.num_nodes();
  std::uint32_t crc = snapshot::crc32_bytes(&n, sizeof(n));
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = graph.neighbors(v);
    crc = snapshot::crc32_bytes(nbrs.data(), nbrs.size_bytes(), crc);
  }
  return (graph.num_edges() << 32) | crc;
}

std::vector<std::byte> encode_step(const StepRecord& rec) {
  snapshot::Writer out;
  out.u32(rec.step);
  out.u32(rec.m);
  out.u32(rec.launched);
  out.u32(rec.committed);
  out.u32(rec.aborted);
  out.u32(rec.pending_after);
  out.f64(rec.avg_degree);
  out.u32(rec.retried);
  out.u32(rec.quarantined);
  out.u32(rec.injected);
  out.u8(rec.degraded ? 1 : 0);
  out.str(rec.error);
  return out.take();
}

StepRecord decode_step(std::span<const std::byte> payload) {
  snapshot::Reader in(payload);
  StepRecord rec;
  rec.step = in.u32();
  rec.m = in.u32();
  rec.launched = in.u32();
  rec.committed = in.u32();
  rec.aborted = in.u32();
  rec.pending_after = in.u32();
  rec.avg_degree = in.f64();
  rec.retried = in.u32();
  rec.quarantined = in.u32();
  rec.injected = in.u32();
  rec.degraded = in.u8() != 0;
  rec.error = in.str();
  in.expect_end();
  return rec;
}

namespace {

std::string snapshot_file(const std::string& dir, char generation) {
  return dir + "/snap-" + generation + ".bin";
}

std::string journal_file(const std::string& dir) {
  return dir + "/journal.bin";
}

}  // namespace

CheckpointManager::CheckpointManager(CheckpointConfig config,
                                     std::uint64_t fingerprint)
    : config_(std::move(config)), fingerprint_(fingerprint),
      journal_(journal_file(config_.dir)) {
  if (config_.every == 0) {
    throw std::invalid_argument("CheckpointManager: every >= 1");
  }
}

void CheckpointManager::remove_files(const std::string& dir) {
  for (const char generation : {'a', 'b'}) {
    const std::string snap = snapshot_file(dir, generation);
    std::remove(snap.c_str());
    std::remove((snap + ".tmp").c_str());  // write_file_atomic's staging
  }
  std::remove(journal_file(dir).c_str());
}

std::string CheckpointManager::snapshot_path(char generation) const {
  return snapshot_file(config_.dir, generation);
}

std::string CheckpointManager::journal_path() const {
  return journal_.path();
}

void CheckpointManager::set_telemetry(telemetry::RuntimeTelemetry* sink) {
  telemetry_ = sink;
}

void CheckpointManager::crash_if(CrashPoint point, std::uint32_t round) {
  if (config_.crash_point == point && config_.crash_round == round) {
    // SIGKILL semantics: no destructors, no stream flushes, exit now.
    std::_Exit(137);
  }
}

std::vector<std::byte> CheckpointManager::build_snapshot(
    const SpeculativeExecutor& executor, const Controller& controller,
    const LoopState& loop, std::uint64_t rounds_done) const {
  snapshot::Writer out;
  out.u64(fingerprint_);
  out.str(controller.name());
  out.u64(rounds_done);
  out.u32(loop.next_m);
  out.u32(loop.stalled);
  out.u8(loop.degraded ? 1 : 0);
  out.u64(static_cast<std::uint64_t>(loop.degraded_at_step));
  controller.save_state(out);
  executor.save_state(out);
  return out.take();
}

void CheckpointManager::on_round(std::uint32_t round, const StepRecord& rec) {
  const std::vector<std::byte> payload = encode_step(rec);
  if (config_.crash_point == CrashPoint::kMidJournalWrite &&
      config_.crash_round == round) {
    // Leave half a frame on disk, then die: the next open's recovery scan
    // must truncate the torn tail and report one fewer committed round.
    journal_.append_torn(payload, (12 + payload.size()) / 2);
    std::_Exit(137);
  }
  journal_.append(payload);
  crash_if(CrashPoint::kAfterJournalAppend, round);
}

void CheckpointManager::maybe_snapshot(std::uint32_t round,
                                       const SpeculativeExecutor& executor,
                                       const Controller& controller,
                                       const LoopState& loop,
                                       std::uint64_t rounds_done,
                                       bool force) {
  const bool injected_here = config_.crash_point != CrashPoint::kNone &&
                             config_.crash_point != CrashPoint::kMidJournalWrite &&
                             config_.crash_point != CrashPoint::kAfterJournalAppend &&
                             config_.crash_round == round;
  if (!force && !injected_here && (round + 1) % config_.every != 0) return;

  TimerAccumulator* acc =
      telemetry_ != nullptr ? &telemetry_->timers().at("checkpoint.save")
                            : nullptr;
  ScopedTimer timer(acc);

  const std::vector<std::byte> payload =
      build_snapshot(executor, controller, loop, rounds_done);
  const std::string path = snapshot_path(next_generation_);

  using snapshot::AtomicWriteStop;
  if (config_.crash_point == CrashPoint::kMidSnapshotWrite &&
      config_.crash_round == round) {
    snapshot::write_file_atomic_until(path, payload,
                                      AtomicWriteStop::kMidWrite);
    std::_Exit(137);
  }
  if (config_.crash_point == CrashPoint::kBeforeSnapshotRename &&
      config_.crash_round == round) {
    snapshot::write_file_atomic_until(path, payload,
                                      AtomicWriteStop::kBeforeRename);
    std::_Exit(137);
  }
  snapshot::write_file_atomic(path, payload);
  crash_if(CrashPoint::kAfterSnapshotRename, round);

  next_generation_ = next_generation_ == 'a' ? 'b' : 'a';
  ++snapshots_written_;
  if (telemetry_ != nullptr) {
    telemetry_->emit({telemetry::EventKind::kCheckpoint, 0,
                      executor.round_index(), rounds_done, payload.size(),
                      0.0, 0.0, path});
  }
}

std::optional<CheckpointManager::ResumeState> CheckpointManager::try_restore(
    SpeculativeExecutor& executor, Controller& controller) {
  TimerAccumulator* acc =
      telemetry_ != nullptr ? &telemetry_->timers().at("checkpoint.restore")
                            : nullptr;
  ScopedTimer timer(acc);
  rejected_.clear();

  // Phase 1: validate each generation's file + header cheaply, without
  // touching live state. A candidate survives when its file checksums, its
  // identity matches this run, and the journal covers its rounds.
  struct Candidate {
    std::string path;
    std::vector<std::byte> payload;
    std::uint64_t rounds_done = 0;
    LoopState loop;
    std::size_t body_pos = 0;  ///< reader offset of the controller blob
  };
  std::vector<Candidate> candidates;
  bool any_file_present = false;
  for (const char gen : {'a', 'b'}) {
    Candidate c;
    c.path = snapshot_path(gen);
    try {
      c.payload = snapshot::read_file_validated(c.path);
      any_file_present = true;
      snapshot::Reader in(std::span<const std::byte>(c.payload));
      const std::uint64_t fp = in.u64();
      if (fp != fingerprint_) {
        throw snapshot::SnapshotError(
            snapshot::SnapshotError::Kind::kMismatch,
            "graph fingerprint differs (snapshot is for different input)");
      }
      const std::string name = in.str();
      if (name != controller.name()) {
        throw snapshot::SnapshotError(
            snapshot::SnapshotError::Kind::kMismatch,
            "controller differs: snapshot has '" + name + "', run has '" +
                controller.name() + "'");
      }
      c.rounds_done = in.u64();
      c.loop.next_m = in.u32();
      c.loop.stalled = in.u32();
      c.loop.degraded = in.u8() != 0;
      c.loop.degraded_at_step = static_cast<std::size_t>(in.u64());
      if (c.rounds_done > journal_.committed_count()) {
        throw snapshot::SnapshotError(
            snapshot::SnapshotError::Kind::kMismatch,
            "journal covers " + std::to_string(journal_.committed_count()) +
                " rounds, snapshot claims " + std::to_string(c.rounds_done));
      }
      c.body_pos = c.payload.size() - in.remaining();
      candidates.push_back(std::move(c));
    } catch (const snapshot::SnapshotError& e) {
      const bool absent =
          e.kind() == snapshot::SnapshotError::Kind::kIo && c.payload.empty();
      if (!absent) rejected_.push_back(c.path + ": " + e.what());
    }
  }
  // Newest generation first; ties cannot happen (rounds strictly advance
  // between snapshots), but break them stably anyway.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& x, const Candidate& y) {
                     return x.rounds_done > y.rounds_done;
                   });

  // Pristine images of the receiving state: if every candidate's body turns
  // out corrupt mid-load, roll back so a clean start really is clean.
  snapshot::Writer pristine_ctl_w;
  controller.save_state(pristine_ctl_w);
  const std::vector<std::byte> pristine_ctl = pristine_ctl_w.take();
  snapshot::Writer pristine_exec_w;
  executor.save_state(pristine_exec_w);
  const std::vector<std::byte> pristine_exec = pristine_exec_w.take();

  for (const Candidate& c : candidates) {
    try {
      snapshot::Reader in(std::span<const std::byte>(c.payload)
                              .subspan(c.body_pos));
      controller.load_state(in);
      executor.load_state(in);
      in.expect_end();
    } catch (const snapshot::SnapshotError& e) {
      rejected_.push_back(c.path + ": " + e.what());
      snapshot::Reader ctl_in{std::span<const std::byte>(pristine_ctl)};
      controller.load_state(ctl_in);
      snapshot::Reader exec_in{std::span<const std::byte>(pristine_exec)};
      executor.load_state(exec_in);
      continue;
    }
    // Loaded. Rewind the journal to the snapshot's round count (records
    // past it belong to rounds we are about to re-execute) and replay the
    // prefix as the resumed trace.
    ResumeState resume;
    resume.rounds_done = c.rounds_done;
    resume.loop = c.loop;
    resume.replayed.reserve(c.rounds_done);
    for (std::uint64_t i = 0; i < c.rounds_done; ++i) {
      resume.replayed.push_back(decode_step(journal_.records()[i]));
    }
    journal_.rewind_to(c.rounds_done);
    if (telemetry_ != nullptr) {
      // The restored totals were earned by pre-crash processes; record
      // them so metrics reconciliation (lanes + restored == total) holds
      // for the resumed run.
      const ExecutorTotals& t = executor.totals();
      telemetry_->set_restored_baseline(
          {t.launched, t.committed, t.aborted, t.retried, t.quarantined});
      telemetry_->emit({telemetry::EventKind::kRecovery, 0,
                        executor.round_index(), c.rounds_done,
                        journal_.committed_count(), 0.0, 0.0,
                        "restored from " + c.path});
    }
    return resume;
  }

  // Clean start: no usable snapshot. The journal's records describe rounds
  // whose executor state is gone, so they must not survive into the fresh
  // run's write-ahead sequence.
  journal_.rewind_to(0);
  if (any_file_present || journal_.truncated_torn_tail()) {
    if (telemetry_ != nullptr) {
      telemetry_->emit({telemetry::EventKind::kRecovery, 0, 0, 0, 0, 0.0,
                        0.0, "no usable snapshot: clean start"});
    }
  }
  return std::nullopt;
}

}  // namespace optipar
