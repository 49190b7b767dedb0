// Deadlines and cooperative interruption (DESIGN.md §13): JobDeadline
// semantics, the AdaptiveRun stepper's equivalence with run_adaptive, and
// the interruption contract — deadline expiry / cancellation at a round
// boundary forces a snapshot and raises JobInterrupted, after which a fresh
// process resumes from the exact interruption point and finishes with a
// trace byte-identical to an uninterrupted run.
#include "support/deadline.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "control/hybrid.hpp"
#include "graph/generators.hpp"
#include "rt/adaptive_executor.hpp"
#include "rt/checkpoint.hpp"
#include "rt/spec_executor.hpp"

namespace optipar {
namespace {

std::string scratch_dir(const std::string& name) {
  const std::string dir = "/tmp/optipar_deadline_" + name;
  ::mkdir(dir.c_str(), 0755);
  for (const char* f : {"/snap-a.bin", "/snap-b.bin", "/journal.bin",
                        "/snap-a.bin.tmp", "/snap-b.bin.tmp"}) {
    std::remove((dir + f).c_str());
  }
  return dir;
}

/// Same single-lane closed-neighborhood workload the checkpoint suite uses:
/// the byte-identity contract is defined over one lane (DESIGN.md §11).
struct RunRig {
  explicit RunRig(const CsrGraph& graph, std::uint64_t seed)
      : pool(1),
        ex(
            pool, graph.num_nodes(),
            [&graph](TaskId t, IterationContext& ctx) {
              const auto v = static_cast<NodeId>(t);
              if (!ctx.acquire(v)) return;
              for (const NodeId u : graph.neighbors(v)) {
                if (!ctx.acquire(u)) return;
              }
            },
            seed) {
    std::vector<TaskId> tasks(graph.num_nodes());
    std::iota(tasks.begin(), tasks.end(), TaskId{0});
    ex.push_initial(tasks);
  }

  ThreadPool pool;
  SpeculativeExecutor ex;
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
    EXPECT_EQ(a.pending_after, b.pending_after) << "round " << i;
  }
}

// ---------------------------------------------------------------------------
// JobDeadline semantics
// ---------------------------------------------------------------------------

TEST(JobDeadline, DefaultIsUnlimited) {
  const JobDeadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_ms(), JobDeadline::kUnlimitedMs);
}

TEST(JobDeadline, NonPositiveTimeoutMeansUnlimited) {
  EXPECT_TRUE(JobDeadline::after_ms(0).unlimited());
  EXPECT_TRUE(JobDeadline::after_ms(-5).unlimited());
  EXPECT_FALSE(JobDeadline::after_ms(0).expired());
}

TEST(JobDeadline, ExpiresAndClampsAtZero) {
  const auto d = JobDeadline::after_ms(1);
  EXPECT_FALSE(d.unlimited());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0);
}

TEST(JobDeadline, GenerousDeadlineIsNotExpired) {
  const auto d = JobDeadline::after_ms(60'000);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 0);
  EXPECT_LE(d.remaining_ms(), 60'000);
}

// ---------------------------------------------------------------------------
// Stepper equivalence
// ---------------------------------------------------------------------------

TEST(AdaptiveRunStepper, StepLoopMatchesRunAdaptive) {
  const CsrGraph g = gen::union_of_cliques(60, 5);
  constexpr std::uint64_t kSeed = 17;

  RunRig one_shot(g, kSeed);
  ControllerParams params;
  HybridController c1(params);
  const Trace reference = run_adaptive(one_shot.ex, c1, {});
  ASSERT_GT(reference.steps.size(), 3u);

  RunRig stepped(g, kSeed);
  HybridController c2(params);
  AdaptiveRun run(stepped.ex, c2, {});
  EXPECT_FALSE(run.resumed());
  std::uint64_t rounds = 0;
  while (run.step()) ++rounds;
  EXPECT_TRUE(run.finished());
  EXPECT_EQ(rounds, reference.steps.size());
  expect_traces_equal(run.trace(), reference);
}

TEST(AdaptiveRunStepper, InterleavedRunsDoNotPerturbEachOther) {
  // Two independent jobs stepped round-robin off the same thread pool must
  // each produce the trace they would have produced alone.
  const CsrGraph ga = gen::union_of_cliques(60, 5);
  const CsrGraph gb = gen::union_of_cliques(49, 6);
  ControllerParams params;

  RunRig ra_solo(ga, 3);
  HybridController ca_solo(params);
  const Trace want_a = run_adaptive(ra_solo.ex, ca_solo, {});
  RunRig rb_solo(gb, 4);
  HybridController cb_solo(params);
  const Trace want_b = run_adaptive(rb_solo.ex, cb_solo, {});

  RunRig ra(ga, 3);
  RunRig rb(gb, 4);
  HybridController ca(params), cb(params);
  AdaptiveRun job_a(ra.ex, ca, {});
  AdaptiveRun job_b(rb.ex, cb, {});
  bool live_a = true, live_b = true;
  while (live_a || live_b) {
    if (live_a) live_a = job_a.step();
    if (live_b) live_b = job_b.step();
  }
  expect_traces_equal(job_a.trace(), want_a);
  expect_traces_equal(job_b.trace(), want_b);
}

// ---------------------------------------------------------------------------
// Interruption and resume
// ---------------------------------------------------------------------------

TEST(Interruption, ExpiredDeadlineRaisesBeforeRunningARound) {
  const CsrGraph g = gen::union_of_cliques(60, 5);
  RunRig rig(g, 17);
  ControllerParams params;
  HybridController controller(params);
  AdaptiveRunConfig cfg;
  cfg.deadline = JobDeadline::after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  AdaptiveRun run(rig.ex, controller, cfg);
  try {
    (void)run.step();
    FAIL() << "expected JobInterrupted";
  } catch (const JobInterrupted& e) {
    EXPECT_EQ(e.reason(), JobInterrupted::Reason::kDeadline);
    EXPECT_EQ(e.rounds_done(), 0u);
    EXPECT_TRUE(e.partial_trace.steps.empty());
  }
}

TEST(Interruption, CancelFlagRaisesAtTheNextBoundary) {
  const CsrGraph g = gen::union_of_cliques(60, 5);
  RunRig rig(g, 17);
  ControllerParams params;
  HybridController controller(params);
  std::atomic<bool> cancel{false};
  AdaptiveRunConfig cfg;
  cfg.cancel = &cancel;
  AdaptiveRun run(rig.ex, controller, cfg);
  ASSERT_TRUE(run.step());
  ASSERT_TRUE(run.step());
  cancel.store(true);
  try {
    (void)run.step();
    FAIL() << "expected JobInterrupted";
  } catch (const JobInterrupted& e) {
    EXPECT_EQ(e.reason(), JobInterrupted::Reason::kCancelled);
    EXPECT_EQ(e.rounds_done(), 2u);
    EXPECT_EQ(e.partial_trace.steps.size(), 2u);
  }
}

TEST(Interruption, RunAdaptiveHonoursTheDeadlineConfig) {
  // The one-shot form (what `optipar_cli run --timeout-ms` drives) shares
  // the stepper, so an already-expired deadline must interrupt it too.
  const CsrGraph g = gen::union_of_cliques(60, 5);
  RunRig rig(g, 17);
  ControllerParams params;
  HybridController controller(params);
  AdaptiveRunConfig cfg;
  cfg.deadline = JobDeadline::after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_THROW((void)run_adaptive(rig.ex, controller, cfg), JobInterrupted);
}

TEST(Interruption, CancelForcesASnapshotAndResumeIsByteIdentical) {
  // Cancel mid-run with checkpointing attached, then finish the job in a
  // fresh rig: the final trace must equal the uninterrupted reference, and
  // the resumed prefix must replay the journalled rounds (full-history
  // trace, not just the tail).
  const CsrGraph g = gen::union_of_cliques(60, 5);
  constexpr std::uint64_t kSeed = 31;
  RunRig ref_rig(g, kSeed);
  ControllerParams params;
  HybridController ref_controller(params);
  const Trace reference = run_adaptive(ref_rig.ex, ref_controller, {});
  ASSERT_GT(reference.steps.size(), 4u);

  const std::string dir = scratch_dir("cancelresume");
  CheckpointConfig ccfg;
  ccfg.dir = dir;
  ccfg.every = 100;  // cadence never fires; only the forced snapshot exists

  {
    RunRig rig(g, kSeed);
    HybridController controller(params);
    CheckpointManager cp(ccfg, graph_fingerprint(g));
    std::atomic<bool> cancel{false};
    AdaptiveRunConfig cfg;
    cfg.checkpoint = &cp;
    cfg.cancel = &cancel;
    AdaptiveRun run(rig.ex, controller, cfg);
    ASSERT_TRUE(run.step());
    ASSERT_TRUE(run.step());
    ASSERT_TRUE(run.step());
    cancel.store(true);
    EXPECT_THROW((void)run.step(), JobInterrupted);
    EXPECT_GE(cp.snapshots_written(), 1u);
  }

  RunRig rig(g, kSeed);
  HybridController controller(params);
  CheckpointManager cp(ccfg, graph_fingerprint(g));
  AdaptiveRunConfig cfg;
  cfg.checkpoint = &cp;
  AdaptiveRun run(rig.ex, controller, cfg);
  EXPECT_TRUE(run.resumed());
  EXPECT_EQ(run.next_round(), 3u);
  while (run.step()) {
  }
  expect_traces_equal(run.trace(), reference);
  EXPECT_TRUE(rig.ex.done());
}

TEST(Interruption, CheckpointNowMakesAnyBoundaryResumable) {
  // The serve daemon's shutdown path: force a snapshot at an arbitrary
  // boundary, abandon the run, resume in a fresh rig.
  const CsrGraph g = gen::union_of_cliques(49, 6);
  constexpr std::uint64_t kSeed = 7;
  RunRig ref_rig(g, kSeed);
  ControllerParams params;
  HybridController ref_controller(params);
  const Trace reference = run_adaptive(ref_rig.ex, ref_controller, {});
  ASSERT_GT(reference.steps.size(), 2u);

  const std::string dir = scratch_dir("forcednow");
  CheckpointConfig ccfg;
  ccfg.dir = dir;
  ccfg.every = 100;

  {
    RunRig rig(g, kSeed);
    HybridController controller(params);
    CheckpointManager cp(ccfg, graph_fingerprint(g));
    AdaptiveRunConfig cfg;
    cfg.checkpoint = &cp;
    AdaptiveRun run(rig.ex, controller, cfg);
    ASSERT_TRUE(run.step());
    ASSERT_TRUE(run.step());
    run.checkpoint_now();
    EXPECT_GE(cp.snapshots_written(), 1u);
  }

  RunRig rig(g, kSeed);
  HybridController controller(params);
  CheckpointManager cp(ccfg, graph_fingerprint(g));
  AdaptiveRunConfig cfg;
  cfg.checkpoint = &cp;
  AdaptiveRun run(rig.ex, controller, cfg);
  EXPECT_TRUE(run.resumed());
  while (run.step()) {
  }
  expect_traces_equal(run.trace(), reference);
}

}  // namespace
}  // namespace optipar
