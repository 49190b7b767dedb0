// Crash-consistent checkpoint/restore (DESIGN.md §11): the snapshot format's
// integrity guarantees, the journal's torn-tail recovery, executor/controller
// state round-trips, and the recovery ladder — newest valid snapshot, older
// generation, clean start — with the byte-identity contract enforced against
// an uninterrupted reference run. In-process crash *injection* (the _Exit
// paths) is exercised end-to-end by scripts/run_crash.sh through the CLI,
// since _Exit would take the test runner down with it.
#include "rt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_spec.hpp"
#include "control/baselines.hpp"
#include "control/extra.hpp"
#include "control/hybrid.hpp"
#include "graph/generators.hpp"
#include "rt/adaptive_executor.hpp"
#include "rt/spec_executor.hpp"
#include "support/snapshot/journal.hpp"
#include "support/snapshot/snapshot.hpp"

namespace optipar {
namespace {

using snapshot::Reader;
using snapshot::RoundJournal;
using snapshot::SnapshotError;
using snapshot::Writer;

// ---------------------------------------------------------------------------
// Fixtures and helpers
// ---------------------------------------------------------------------------

/// Fresh, empty scratch directory per test.
std::string scratch_dir(const std::string& name) {
  const std::string dir = "/tmp/optipar_ckpt_" + name;
  ::mkdir(dir.c_str(), 0755);
  CheckpointManager::remove_files(dir);
  return dir;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spew(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void flip_byte(const std::string& path, std::size_t offset) {
  auto bytes = slurp(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5a);
  spew(path, bytes);
}

/// The `run` subcommand's workload at test scale: one task per node, each
/// acquiring its closed neighborhood. Single-lane pool: the multi-lane draw
/// phase hands ticket chunks to lanes through a racing fetch_add, so only
/// the one-lane configuration replays byte-identically — which is exactly
/// the configuration the byte-identity contract is defined over (the same
/// scope as run_chaos.sh's deterministic-replay check; DESIGN.md §11).
struct RunRig {
  RunRig(const CsrGraph& graph, std::uint64_t seed)
      : owned(build_executor(pool, lock_only_spec(graph), seed)) {}

  ThreadPool pool{1};
  std::unique_ptr<SpeculativeExecutor> owned;
  SpeculativeExecutor& ex = *owned;
};

void expect_traces_equal(const Trace& got, const Trace& want) {
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (std::size_t i = 0; i < want.steps.size(); ++i) {
    const StepRecord& a = got.steps[i];
    const StepRecord& b = want.steps[i];
    EXPECT_EQ(a.step, b.step) << "round " << i;
    EXPECT_EQ(a.m, b.m) << "round " << i;
    EXPECT_EQ(a.launched, b.launched) << "round " << i;
    EXPECT_EQ(a.committed, b.committed) << "round " << i;
    EXPECT_EQ(a.aborted, b.aborted) << "round " << i;
    EXPECT_EQ(a.retried, b.retried) << "round " << i;
    EXPECT_EQ(a.quarantined, b.quarantined) << "round " << i;
    EXPECT_EQ(a.injected, b.injected) << "round " << i;
    EXPECT_EQ(a.pending_after, b.pending_after) << "round " << i;
    EXPECT_EQ(a.degraded, b.degraded) << "round " << i;
    EXPECT_EQ(a.error, b.error) << "round " << i;
  }
  EXPECT_EQ(got.degraded_at_step, want.degraded_at_step);
}

// ---------------------------------------------------------------------------
// Format layer
// ---------------------------------------------------------------------------

TEST(SnapshotFormat, Crc32KnownAnswer) {
  // The standard check value for CRC-32/ISO-HDLC.
  EXPECT_EQ(snapshot::crc32_bytes("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(snapshot::crc32_bytes("", 0), 0u);
}

TEST(SnapshotFormat, WriterReaderRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(-3.25);
  w.str("hello \0 world");  // embedded NUL truncates at the literal — fine
  w.str("");
  const std::vector<std::uint64_t> xs = {1, 2, 3, 1ull << 40};
  w.u64_vec(xs);

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xabu);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), -3.25);
  EXPECT_EQ(r.str(), "hello ");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.u64_vec(), xs);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(SnapshotFormat, HostilePayloadsAreRejectedBeforeAllocation) {
  // A length prefix claiming more bytes than remain must throw kMalformed
  // without attempting the allocation.
  Writer w;
  w.u64(1ull << 40);  // "here come 2^40 u64s"
  Reader r(w.bytes());
  try {
    (void)r.u64_vec();
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kMalformed);
  }

  // Reading past the end of a truncated buffer throws, never reads.
  Writer w2;
  w2.u32(7);
  Reader r2(w2.bytes());
  EXPECT_THROW((void)r2.u64(), SnapshotError);

  // Leftover bytes are a format violation, not silently ignored.
  Writer w3;
  w3.u32(7);
  w3.u32(8);
  Reader r3(w3.bytes());
  (void)r3.u32();
  EXPECT_THROW(r3.expect_end(), SnapshotError);
}

TEST(SnapshotFormat, FileCorruptionIsDetectedByKind) {
  const std::string dir = scratch_dir("filecorrupt");
  const std::string path =
      CheckpointManager(CheckpointConfig{.dir = dir}, 0).snapshot_path('a');
  Writer w;
  w.str("payload under test");
  w.u64(123456789);
  const auto payload = w.take();

  snapshot::write_file_atomic(path, payload);
  EXPECT_EQ(snapshot::read_file_validated(path), payload);

  // Bit rot in the payload -> kBadChecksum.
  flip_byte(path, snapshot::kFileHeaderBytes + 3);
  try {
    (void)snapshot::read_file_validated(path);
    FAIL() << "expected kBadChecksum";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kBadChecksum);
  }

  // Wrong magic -> not a snapshot at all.
  snapshot::write_file_atomic(path, payload);
  flip_byte(path, 0);
  try {
    (void)snapshot::read_file_validated(path);
    FAIL() << "expected kBadMagic";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kBadMagic);
  }

  // Future format version -> kBadVersion.
  snapshot::write_file_atomic(path, payload);
  flip_byte(path, 4);
  try {
    (void)snapshot::read_file_validated(path);
    FAIL() << "expected kBadVersion";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kBadVersion);
  }

  // Torn write: payload shorter than the header's length -> kTruncated.
  snapshot::write_file_atomic(path, payload);
  auto bytes = slurp(path);
  bytes.resize(bytes.size() - 5);
  spew(path, bytes);
  try {
    (void)snapshot::read_file_validated(path);
    FAIL() << "expected kTruncated";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kTruncated);
  }

  // Absent file -> kIo (the ladder's "candidate not present").
  try {
    (void)snapshot::read_file_validated(dir + "/no-such.bin");
    FAIL() << "expected kIo";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kIo);
  }
}

TEST(SnapshotFormat, MidWriteStopLeavesTargetUntouched) {
  const std::string dir = scratch_dir("midwrite");
  const std::string path =
      CheckpointManager(CheckpointConfig{.dir = dir}, 0).snapshot_path('a');
  Writer w;
  w.str("generation one");
  snapshot::write_file_atomic(path, w.bytes());
  const auto original = slurp(path);

  Writer w2;
  w2.str("generation two, torn mid-write");
  snapshot::write_file_atomic_until(path, w2.bytes(),
                                    snapshot::AtomicWriteStop::kMidWrite);
  // The visible file still holds generation one; only the tmp is torn.
  EXPECT_EQ(slurp(path), original);
  snapshot::write_file_atomic_until(
      path, w2.bytes(), snapshot::AtomicWriteStop::kBeforeRename);
  EXPECT_EQ(slurp(path), original);
}

// ---------------------------------------------------------------------------
// Journal layer
// ---------------------------------------------------------------------------

TEST(Journal, TornTailIsTruncatedOnOpen) {
  const std::string dir = scratch_dir("torntail");
  const std::string path =
      CheckpointManager(CheckpointConfig{.dir = dir}, 0).journal_path();
  Writer r0;
  r0.str("record zero");
  Writer r1;
  r1.str("record one");
  Writer r2;
  r2.str("record two — torn");
  {
    RoundJournal j(path);
    EXPECT_EQ(j.committed_count(), 0u);
    j.append(r0.bytes());
    j.append(r1.bytes());
    j.append_torn(r2.bytes(), 7);  // half a header, then "crash"
    EXPECT_EQ(j.committed_count(), 2u);
  }
  {
    RoundJournal j(path);
    EXPECT_TRUE(j.truncated_torn_tail());
    ASSERT_EQ(j.records().size(), 2u);
    EXPECT_EQ(Reader(j.records()[0]).str(), "record zero");
    EXPECT_EQ(Reader(j.records()[1]).str(), "record one");
    // Appends continue cleanly past the truncation point.
    j.append(r2.bytes());
    EXPECT_EQ(j.committed_count(), 3u);
  }
  {
    RoundJournal j(path);
    EXPECT_FALSE(j.truncated_torn_tail());
    ASSERT_EQ(j.records().size(), 3u);
    EXPECT_EQ(Reader(j.records()[2]).str(), "record two — torn");
  }
}

TEST(Journal, RewindDropsNewerRecords) {
  const std::string dir = scratch_dir("rewind");
  const std::string path =
      CheckpointManager(CheckpointConfig{.dir = dir}, 0).journal_path();
  {
    RoundJournal j(path);
    for (std::uint32_t i = 0; i < 5; ++i) {
      Writer w;
      w.u32(i);
      j.append(w.bytes());
    }
    j.rewind_to(2);
    EXPECT_EQ(j.committed_count(), 2u);
  }
  RoundJournal j(path);
  ASSERT_EQ(j.records().size(), 2u);
  EXPECT_EQ(Reader(j.records()[1]).u32(), 1u);
}

TEST(Journal, StepRecordRoundTrips) {
  StepRecord rec;
  rec.step = 17;
  rec.m = 9;
  rec.launched = 9;
  rec.committed = 6;
  rec.aborted = 3;
  rec.pending_after = 40;
  rec.retried = 2;
  rec.quarantined = 1;
  rec.injected = 4;
  rec.degraded = true;
  rec.error = "std::runtime_error: injected";
  const StepRecord back = decode_step(encode_step(rec));
  EXPECT_EQ(back.step, rec.step);
  EXPECT_EQ(back.m, rec.m);
  EXPECT_EQ(back.launched, rec.launched);
  EXPECT_EQ(back.committed, rec.committed);
  EXPECT_EQ(back.aborted, rec.aborted);
  EXPECT_EQ(back.pending_after, rec.pending_after);
  EXPECT_EQ(back.retried, rec.retried);
  EXPECT_EQ(back.quarantined, rec.quarantined);
  EXPECT_EQ(back.injected, rec.injected);
  EXPECT_EQ(back.degraded, rec.degraded);
  EXPECT_EQ(back.error, rec.error);
}

// ---------------------------------------------------------------------------
// State round-trips
// ---------------------------------------------------------------------------

TEST(StateRoundTrip, ExecutorResumesTheExactDrawStream) {
  // Save the executor mid-run, load into a freshly constructed twin, then
  // drive both with the same allocation sequence: every round must match.
  const CsrGraph g = gen::union_of_cliques(49, 6);
  RunRig a(g, 99);
  for (int i = 0; i < 4; ++i) (void)a.ex.run_round(5);

  Writer w;
  a.ex.save_state(w);
  const auto payload = w.take();

  RunRig b(g, 99);
  Reader r(payload);
  b.ex.load_state(r);
  EXPECT_NO_THROW(r.expect_end());

  while (!a.ex.done()) {
    const RoundStats sa = a.ex.run_round(7);
    const RoundStats sb = b.ex.run_round(7);
    EXPECT_EQ(sa.launched, sb.launched);
    EXPECT_EQ(sa.committed, sb.committed);
    EXPECT_EQ(sa.aborted, sb.aborted);
    EXPECT_EQ(a.ex.pending(), b.ex.pending());
  }
  EXPECT_TRUE(b.ex.done());
  EXPECT_EQ(a.ex.totals().committed, b.ex.totals().committed);
  EXPECT_EQ(a.ex.totals().launched, b.ex.totals().launched);
  EXPECT_EQ(a.ex.round_index(), b.ex.round_index());
}

TEST(StateRoundTrip, ExecutorShapeMismatchIsRejected) {
  const CsrGraph g = gen::union_of_cliques(49, 6);
  RunRig a(g, 99);
  (void)a.ex.run_round(4);
  Writer w;
  a.ex.save_state(w);
  const auto payload = w.take();

  RunRig other_seed(g, 100);
  Reader r(payload);
  try {
    other_seed.ex.load_state(r);
    FAIL() << "expected kMismatch";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kMismatch);
  }
}

TEST(StateRoundTrip, RetiredArbitrationValueIsRejected) {
  // Shape header: u64 seed derivative, u64 shard count, u8 worklist, the
  // u8 arbitration byte, then the u8 backend byte. Abort-self (0) is the
  // only rule; 1 was the retired priority-wins rule. Backend 2 was the
  // retired relaxed backend. Both values must stay refused.
  constexpr std::size_t kArbitrationOffset = 8 + 8 + 1;
  constexpr std::size_t kBackendOffset = 8 + 8 + 1 + 1;
  const CsrGraph g = gen::union_of_cliques(49, 6);
  RunRig a(g, 99);
  (void)a.ex.run_round(4);
  Writer w;
  a.ex.save_state(w);
  const auto payload = w.take();
  ASSERT_GT(payload.size(), kBackendOffset);
  ASSERT_EQ(payload[kArbitrationOffset], std::byte{0});
  ASSERT_EQ(payload[kBackendOffset], std::byte{0});

  // Unmodified, the snapshot loads into a twin.
  {
    RunRig twin(g, 99);
    Reader r(payload);
    EXPECT_NO_THROW(twin.ex.load_state(r));
  }
  for (const auto& [offset, retired] :
       {std::pair{kArbitrationOffset, std::byte{1}},
        std::pair{kBackendOffset, std::byte{2}}}) {
    SCOPED_TRACE(offset);
    auto tampered = payload;
    tampered[offset] = retired;
    RunRig twin(g, 99);
    Reader r(tampered);
    try {
      twin.ex.load_state(r);
      FAIL() << "expected kMismatch";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::kMismatch);
    }
  }
}

TEST(StateRoundTrip, ControllersResumeTheirDecisionSequence) {
  // Feed a prefix of observations, save, restore into a fresh instance,
  // then feed an identical suffix to both: decisions must coincide.
  ControllerParams params;
  const auto stats_at = [](std::uint32_t i) {
    RoundStats s;
    s.launched = 16;
    s.aborted = (i * 5) % 17;
    if (s.aborted > s.launched) s.aborted = s.launched;
    s.committed = s.launched - s.aborted;
    return s;
  };
  const auto check = [&](Controller& live, Controller& restored) {
    for (std::uint32_t i = 0; i < 9; ++i) (void)live.observe(stats_at(i));
    Writer w;
    live.save_state(w);
    Reader r(w.bytes());
    restored.load_state(r);
    EXPECT_NO_THROW(r.expect_end());
    for (std::uint32_t i = 9; i < 25; ++i) {
      EXPECT_EQ(live.observe(stats_at(i)), restored.observe(stats_at(i)))
          << live.name() << " diverged at observation " << i;
    }
  };

  HybridController h1(params), h2(params);
  check(h1, h2);
  BisectionController b1(params), b2(params);
  check(b1, b2);
  AimdController a1(params), a2(params);
  check(a1, a2);
  PidController p1(params), p2(params);
  check(p1, p2);
  EwmaHybridController e1(params), e2(params);
  check(e1, e2);
}

// ---------------------------------------------------------------------------
// The recovery ladder, end to end
// ---------------------------------------------------------------------------

Trace reference_run(const CsrGraph& g, std::uint64_t seed,
                    const AdaptiveRunConfig& cfg) {
  RunRig rig(g, seed);
  ControllerParams params;
  HybridController controller(params);
  return run_adaptive(rig.ex, controller, cfg);
}

TEST(RecoveryLadder, ResumedRunIsByteIdenticalToUninterrupted) {
  const CsrGraph g = gen::union_of_cliques(60, 5);
  constexpr std::uint64_t kSeed = 31;
  AdaptiveRunConfig cfg;
  const Trace reference = reference_run(g, kSeed, cfg);
  ASSERT_GT(reference.steps.size(), 6u);  // needs room to interrupt

  const std::string dir = scratch_dir("byteident");
  CheckpointConfig ccfg;
  ccfg.dir = dir;
  ccfg.every = 2;

  // "Crash" after a handful of rounds: max_rounds plays the role of the
  // kill, leaving a snapshot plus journal records beyond it on disk.
  {
    RunRig rig(g, kSeed);
    ControllerParams params;
    HybridController controller(params);
    CheckpointManager cp(ccfg, graph_fingerprint(g));
    AdaptiveRunConfig partial = cfg;
    partial.max_rounds = 5;
    partial.checkpoint = &cp;
    const Trace before = run_adaptive(rig.ex, controller, partial);
    ASSERT_EQ(before.steps.size(), 5u);
    ASSERT_GE(cp.snapshots_written(), 1u);
    expect_traces_equal(
        before, Trace{{reference.steps.begin(), reference.steps.begin() + 5},
                      reference.degraded_at_step >= 5
                          ? static_cast<std::size_t>(-1)
                          : reference.degraded_at_step});
  }

  // Resume with a FRESH rig and controller: everything must come from disk.
  RunRig rig(g, kSeed);
  ControllerParams params;
  HybridController controller(params);
  CheckpointManager cp(ccfg, graph_fingerprint(g));
  AdaptiveRunConfig resume = cfg;
  resume.checkpoint = &cp;
  const Trace resumed = run_adaptive(rig.ex, controller, resume);

  expect_traces_equal(resumed, reference);
  EXPECT_TRUE(rig.ex.done());
  EXPECT_TRUE(cp.rejected_candidates().empty());
}

TEST(RecoveryLadder, CorruptNewestFallsBackToOlderGeneration) {
  const CsrGraph g = gen::union_of_cliques(60, 5);
  constexpr std::uint64_t kSeed = 31;
  AdaptiveRunConfig cfg;
  const Trace reference = reference_run(g, kSeed, cfg);

  const std::string dir = scratch_dir("fallback");
  CheckpointConfig ccfg;
  ccfg.dir = dir;
  ccfg.every = 2;  // snapshots after rounds 1 and 3 -> both generations
  {
    RunRig rig(g, kSeed);
    ControllerParams params;
    HybridController controller(params);
    CheckpointManager cp(ccfg, graph_fingerprint(g));
    AdaptiveRunConfig partial = cfg;
    partial.max_rounds = 4;
    partial.checkpoint = &cp;
    (void)run_adaptive(rig.ex, controller, partial);
    ASSERT_EQ(cp.snapshots_written(), 2u);
    // Generation a holds rounds 0-1, generation b rounds 0-3. Corrupt the
    // newer one: the ladder must detect it and load the older.
    flip_byte(cp.snapshot_path('b'), snapshot::kFileHeaderBytes + 2);
  }

  RunRig rig(g, kSeed);
  ControllerParams params;
  HybridController controller(params);
  CheckpointManager cp(ccfg, graph_fingerprint(g));
  AdaptiveRunConfig resume = cfg;
  resume.checkpoint = &cp;
  const Trace resumed = run_adaptive(rig.ex, controller, resume);

  expect_traces_equal(resumed, reference);
  ASSERT_EQ(cp.rejected_candidates().size(), 1u);
  EXPECT_NE(cp.rejected_candidates()[0].find(cp.snapshot_path('b')),
            std::string::npos);
}

TEST(RecoveryLadder, BothGenerationsCorruptMeansCleanStart) {
  const CsrGraph g = gen::union_of_cliques(60, 5);
  constexpr std::uint64_t kSeed = 31;
  AdaptiveRunConfig cfg;
  const Trace reference = reference_run(g, kSeed, cfg);

  const std::string dir = scratch_dir("cleanstart");
  CheckpointConfig ccfg;
  ccfg.dir = dir;
  ccfg.every = 2;
  {
    RunRig rig(g, kSeed);
    ControllerParams params;
    HybridController controller(params);
    CheckpointManager cp(ccfg, graph_fingerprint(g));
    AdaptiveRunConfig partial = cfg;
    partial.max_rounds = 4;
    partial.checkpoint = &cp;
    (void)run_adaptive(rig.ex, controller, partial);
    for (const char generation : {'a', 'b'}) {
      flip_byte(cp.snapshot_path(generation), snapshot::kFileHeaderBytes + 1);
    }
  }

  // Clean start must really be clean: the stale journal is rewound, and the
  // rerun reproduces the reference trace from round 0.
  RunRig rig(g, kSeed);
  ControllerParams params;
  HybridController controller(params);
  CheckpointManager cp(ccfg, graph_fingerprint(g));
  AdaptiveRunConfig resume = cfg;
  resume.checkpoint = &cp;
  const Trace resumed = run_adaptive(rig.ex, controller, resume);

  expect_traces_equal(resumed, reference);
  EXPECT_EQ(cp.rejected_candidates().size(), 2u);
}

TEST(RecoveryLadder, CorruptSnapshotsPlusTornJournalStillStartClean) {
  // The combined worst case a crashing daemon can leave behind: BOTH
  // snapshot generations rotted AND a torn record at the journal tail.
  // Recovery must refuse every damaged artifact and fall all the way to a
  // clean start — never loading corrupt state — and the rerun must still
  // reproduce the reference trace from round 0.
  const CsrGraph g = gen::union_of_cliques(60, 5);
  constexpr std::uint64_t kSeed = 31;
  AdaptiveRunConfig cfg;
  const Trace reference = reference_run(g, kSeed, cfg);

  const std::string dir = scratch_dir("worstcase");
  CheckpointConfig ccfg;
  ccfg.dir = dir;
  ccfg.every = 2;
  {
    RunRig rig(g, kSeed);
    ControllerParams params;
    HybridController controller(params);
    CheckpointManager cp(ccfg, graph_fingerprint(g));
    AdaptiveRunConfig partial = cfg;
    partial.max_rounds = 4;
    partial.checkpoint = &cp;
    (void)run_adaptive(rig.ex, controller, partial);
    ASSERT_EQ(cp.snapshots_written(), 2u);
    for (const char generation : {'a', 'b'}) {
      flip_byte(cp.snapshot_path(generation), snapshot::kFileHeaderBytes + 1);
    }
    RoundJournal j(cp.journal_path());
    Writer torn;
    torn.str("round record interrupted by the crash");
    j.append_torn(torn.bytes(), 5);
  }

  RunRig rig(g, kSeed);
  ControllerParams params;
  HybridController controller(params);
  CheckpointManager cp(ccfg, graph_fingerprint(g));
  AdaptiveRunConfig resume = cfg;
  resume.checkpoint = &cp;
  const Trace resumed = run_adaptive(rig.ex, controller, resume);

  expect_traces_equal(resumed, reference);
  EXPECT_EQ(cp.rejected_candidates().size(), 2u);
  EXPECT_TRUE(rig.ex.done());
}

TEST(RecoveryLadder, WrongRunIdentityIsNeverLoaded) {
  const CsrGraph g = gen::union_of_cliques(60, 5);
  constexpr std::uint64_t kSeed = 31;
  const std::string dir = scratch_dir("identity");
  CheckpointConfig ccfg;
  ccfg.dir = dir;
  ccfg.every = 2;
  {
    RunRig rig(g, kSeed);
    ControllerParams params;
    HybridController controller(params);
    CheckpointManager cp(ccfg, graph_fingerprint(g));
    AdaptiveRunConfig partial;
    partial.max_rounds = 4;
    partial.checkpoint = &cp;
    (void)run_adaptive(rig.ex, controller, partial);
  }

  // Different graph -> fingerprint mismatch: both candidates rejected.
  {
    const CsrGraph other = gen::union_of_cliques(60, 4);
    RunRig rig(other, kSeed);
    ControllerParams params;
    HybridController controller(params);
    CheckpointManager cp(ccfg, graph_fingerprint(other));
    auto resume = cp.try_restore(rig.ex, controller);
    EXPECT_FALSE(resume.has_value());
    EXPECT_EQ(cp.rejected_candidates().size(), 2u);
  }

  // Different controller -> name mismatch, same refusal.
  {
    RunRig rig(g, kSeed);
    ControllerParams params;
    AimdController controller(params);
    CheckpointManager cp(ccfg, graph_fingerprint(g));
    auto resume = cp.try_restore(rig.ex, controller);
    EXPECT_FALSE(resume.has_value());
    EXPECT_EQ(cp.rejected_candidates().size(), 2u);
  }
}

TEST(RecoveryLadder, EveryInterruptionPointResumesByteIdentical) {
  // Sweep the kill across every round of the run (the in-process analogue
  // of scripts/run_crash.sh's _Exit sweep): each prefix length must resume
  // into the same final trace.
  const CsrGraph g = gen::union_of_cliques(36, 5);
  constexpr std::uint64_t kSeed = 7;
  AdaptiveRunConfig cfg;
  const Trace reference = reference_run(g, kSeed, cfg);
  ASSERT_GE(reference.steps.size(), 4u);

  for (std::uint32_t kill = 1; kill < reference.steps.size(); ++kill) {
    const std::string dir = scratch_dir("sweep");
    CheckpointConfig ccfg;
    ccfg.dir = dir;
    ccfg.every = 2;
    {
      RunRig rig(g, kSeed);
      ControllerParams params;
      HybridController controller(params);
      CheckpointManager cp(ccfg, graph_fingerprint(g));
      AdaptiveRunConfig partial = cfg;
      partial.max_rounds = kill;
      partial.checkpoint = &cp;
      (void)run_adaptive(rig.ex, controller, partial);
    }
    RunRig rig(g, kSeed);
    ControllerParams params;
    HybridController controller(params);
    CheckpointManager cp(ccfg, graph_fingerprint(g));
    AdaptiveRunConfig resume = cfg;
    resume.checkpoint = &cp;
    const Trace resumed = run_adaptive(rig.ex, controller, resume);
    expect_traces_equal(resumed, reference);
    EXPECT_TRUE(rig.ex.done()) << "kill after round " << kill;
  }
}

}  // namespace
}  // namespace optipar
