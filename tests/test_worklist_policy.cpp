#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "rt/spec_executor.hpp"
#include "support/thread_pool.hpp"

namespace optipar {
namespace {

/// Record the order tasks were observed by the operator (single thread so
/// the order is deterministic within a round).
struct OrderRecorder {
  std::mutex mu;
  std::vector<TaskId> seen;

  TaskOperator op() {
    return [this](TaskId t, IterationContext&) {
      const std::lock_guard lock(mu);
      seen.push_back(t);
    };
  }
};

TEST(WorklistPolicy, FifoPreservesPushOrder) {
  ThreadPool pool(1);
  OrderRecorder rec;
  SpeculativeExecutor ex(pool, 1, rec.op(), 1,
                         RoundOptions{.worklist = WorklistPolicy::kFifo});
  std::vector<TaskId> tasks{10, 20, 30, 40, 50};
  ex.push_initial(tasks);
  (void)ex.run_round(2);
  (void)ex.run_round(3);
  EXPECT_EQ(rec.seen, (std::vector<TaskId>{10, 20, 30, 40, 50}));
}

TEST(WorklistPolicy, LifoTakesNewestFirst) {
  ThreadPool pool(1);
  OrderRecorder rec;
  SpeculativeExecutor ex(pool, 1, rec.op(), 2,
                         RoundOptions{.worklist = WorklistPolicy::kLifo});
  std::vector<TaskId> tasks{1, 2, 3};
  ex.push_initial(tasks);
  (void)ex.run_round(2);
  EXPECT_EQ(rec.seen, (std::vector<TaskId>{3, 2}));
  (void)ex.run_round(1);
  EXPECT_EQ(rec.seen, (std::vector<TaskId>{3, 2, 1}));
}

TEST(WorklistPolicy, FifoPushedWorkRunsAfterInitialWork) {
  ThreadPool pool(1);
  std::vector<TaskId> order;
  std::mutex mu;
  SpeculativeExecutor ex(
      pool, 1,
      [&](TaskId t, IterationContext& ctx) {
        {
          const std::lock_guard lock(mu);
          order.push_back(t);
        }
        if (t == 1) ctx.push(99);
      },
      3, RoundOptions{.worklist = WorklistPolicy::kFifo});
  std::vector<TaskId> tasks{1, 2};
  ex.push_initial(tasks);
  while (!ex.done()) (void)ex.run_round(1);
  EXPECT_EQ(order, (std::vector<TaskId>{1, 2, 99}));
}

TEST(WorklistPolicy, AllPoliciesDrainEverything) {
  for (const auto policy : {WorklistPolicy::kRandom, WorklistPolicy::kFifo,
                            WorklistPolicy::kLifo}) {
    ThreadPool pool(2);
    std::mutex mu;
    std::set<TaskId> seen;
    SpeculativeExecutor ex(
        pool, 64,
        [&](TaskId t, IterationContext& ctx) {
          if (!ctx.acquire(static_cast<std::uint32_t>(t % 64))) return;
          const std::lock_guard lock(mu);
          seen.insert(t);
        },
        4, RoundOptions{.worklist = policy});
    std::vector<TaskId> tasks;
    for (TaskId t = 0; t < 200; ++t) tasks.push_back(t);
    ex.push_initial(tasks);
    int rounds = 0;
    while (!ex.done() && rounds++ < 1000) (void)ex.run_round(32);
    EXPECT_TRUE(ex.done());
    EXPECT_EQ(seen.size(), 200u);
  }
}

TEST(WorklistPolicy, FifoCompactionKeepsPendingCorrect) {
  // Push enough work that the head-cursor compaction path triggers.
  ThreadPool pool(1);
  SpeculativeExecutor ex(
      pool, 1, [](TaskId, IterationContext&) {}, 5,
      RoundOptions{.worklist = WorklistPolicy::kFifo});
  std::vector<TaskId> tasks(5000);
  for (TaskId t = 0; t < 5000; ++t) tasks[t] = t;
  ex.push_initial(tasks);
  std::size_t expected = 5000;
  while (!ex.done()) {
    const auto stats = ex.run_round(64);
    expected -= stats.launched;
    ASSERT_EQ(ex.pending(), expected);
  }
}

TEST(WorklistPolicy, PriorityRequiresPriorityFunction) {
  ThreadPool pool(1);
  SpeculativeExecutor ex(pool, 1, [](TaskId, IterationContext&) {}, 6,
                         RoundOptions{.worklist = WorklistPolicy::kPriority});
  std::vector<TaskId> tasks{1};
  EXPECT_THROW((void)ex.push_initial(tasks), std::logic_error);
}

TEST(WorklistPolicy, PriorityRunsSmallestFirst) {
  ThreadPool pool(1);
  OrderRecorder rec;
  SpeculativeExecutor ex(pool, 1, rec.op(), 7,
                         RoundOptions{.worklist = WorklistPolicy::kPriority});
  // Priority = the task id modulo 10, so 23 (3) beats 41 (1)... careful:
  // smaller runs first.
  ex.set_priority_function([](TaskId t) { return t % 10; });
  std::vector<TaskId> tasks{23, 41, 35, 17};  // priorities 3, 1, 5, 7
  ex.push_initial(tasks);
  (void)ex.run_round(2);
  EXPECT_EQ(rec.seen, (std::vector<TaskId>{41, 23}));
  (void)ex.run_round(2);
  EXPECT_EQ(rec.seen, (std::vector<TaskId>{41, 23, 35, 17}));
}

TEST(WorklistPolicy, PriorityReevaluatedOnPush) {
  // A pushed task's priority reflects state at push time, so dynamic
  // priorities (e.g. tentative SSSP distances) work.
  ThreadPool pool(1);
  std::vector<std::uint64_t> dynamic_priority = {5, 1};
  OrderRecorder rec;
  SpeculativeExecutor ex(pool, 2, rec.op(), 8,
                         RoundOptions{.worklist = WorklistPolicy::kPriority});
  ex.set_priority_function(
      [&dynamic_priority](TaskId t) { return dynamic_priority[t]; });
  std::vector<TaskId> tasks{0};
  ex.push_initial(tasks);
  dynamic_priority[0] = 0;  // changing it later does not reorder the heap
  (void)ex.run_round(1);
  EXPECT_EQ(rec.seen, (std::vector<TaskId>{0}));
}

TEST(WorklistPolicy, RandomPolicyIsSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    ThreadPool pool(1);
    OrderRecorder rec;
    SpeculativeExecutor ex(pool, 1, rec.op(), seed);
    std::vector<TaskId> tasks{1, 2, 3, 4, 5, 6, 7, 8};
    ex.push_initial(tasks);
    while (!ex.done()) (void)ex.run_round(3);
    return rec.seen;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // overwhelmingly likely for 8 tasks
}

// ---------------------------------------------------------------------------
// Golden single-lane traces: the exact execution orders and per-round commit
// counts the ORIGINAL centralized-worklist executor produced for this
// workload (pool of 1 worker, 8 items, tasks 0..19, seed 12345, rounds of
// 5; committed tasks t < 40 push t + 100). The sharded executor must replay
// them byte-for-byte — this is the determinism contract of DESIGN.md §7:
// with a single lane the draw sequence, the worklist evolution, and hence
// the whole schedule are identical to the centralized implementation.
// ---------------------------------------------------------------------------

struct GoldenTrace {
  std::vector<TaskId> exec_order;
  std::vector<std::uint32_t> per_round_committed;
};

GoldenTrace run_golden_workload(WorklistPolicy policy) {
  ThreadPool pool(1);
  GoldenTrace out;
  std::mutex mu;
  SpeculativeExecutor ex(
      pool, 8,
      [&](TaskId t, IterationContext& ctx) {
        {
          const std::lock_guard lock(mu);
          out.exec_order.push_back(t);
        }
        if (!ctx.acquire(static_cast<std::uint32_t>(t % 8))) return;
        if (t < 40) ctx.push(t + 100);
      },
      /*seed=*/12345, RoundOptions{.worklist = policy});
  std::vector<TaskId> tasks;
  for (TaskId t = 0; t < 20; ++t) tasks.push_back(t);
  ex.push_initial(tasks);
  int rounds = 0;
  while (!ex.done() && rounds++ < 200) {
    out.per_round_committed.push_back(ex.run_round(5).committed);
  }
  return out;
}

TEST(WorklistPolicy, GoldenTraceRandomSingleLaneMatchesCentralizedSeed) {
  const auto got = run_golden_workload(WorklistPolicy::kRandom);
  const std::vector<TaskId> want_order{
      14,  2,   17,  0,   8,   16,  3,   5,   6,   19,  116, 10,  19,
      103, 18,  110, 7,   13,  15,  102, 1,   117, 102, 4,   8,   12,
      108, 119, 114, 106, 108, 101, 15,  9,   100, 113, 105, 18,  100,
      107, 11,  118, 112, 109, 105, 104, 111, 106, 115};
  const std::vector<std::uint32_t> want_committed{4, 4, 4, 3, 5, 3, 4, 4, 5, 4};
  EXPECT_EQ(got.exec_order, want_order);
  EXPECT_EQ(got.per_round_committed, want_committed);
}

TEST(WorklistPolicy, GoldenTraceFifoSingleLaneMatchesCentralizedSeed) {
  const auto got = run_golden_workload(WorklistPolicy::kFifo);
  std::vector<TaskId> want_order;
  for (TaskId t = 0; t < 20; ++t) want_order.push_back(t);
  for (TaskId t = 100; t < 120; ++t) want_order.push_back(t);
  EXPECT_EQ(got.exec_order, want_order);
  EXPECT_EQ(got.per_round_committed,
            (std::vector<std::uint32_t>(8, 5)));
}

TEST(WorklistPolicy, GoldenTraceLifoSingleLaneMatchesCentralizedSeed) {
  const auto got = run_golden_workload(WorklistPolicy::kLifo);
  const std::vector<TaskId> want_order{
      19,  18,  17,  16,  15,  115, 116, 117, 118, 119, 14,  13,  12,  11,
      10,  110, 111, 112, 113, 114, 9,   8,   7,   6,   5,   105, 106, 107,
      108, 109, 4,   3,   2,   1,   0,   100, 101, 102, 103, 104};
  EXPECT_EQ(got.exec_order, want_order);
  EXPECT_EQ(got.per_round_committed,
            (std::vector<std::uint32_t>(8, 5)));
}

}  // namespace
}  // namespace optipar
