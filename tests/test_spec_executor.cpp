#include "rt/spec_executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "rt/adaptive_executor.hpp"
#include "control/baselines.hpp"
#include "control/hybrid.hpp"

namespace optipar {
namespace {

TEST(SpecExecutor, IndependentTasksAllCommitInOneRound) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> cell(16);
  SpeculativeExecutor ex(
      pool, 16,
      [&](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t))) return;
        cell[t].fetch_add(1);
      },
      /*seed=*/1);
  std::vector<TaskId> tasks;
  for (TaskId t = 0; t < 16; ++t) tasks.push_back(t);
  ex.push_initial(tasks);
  const auto stats = ex.run_round(16);
  EXPECT_EQ(stats.launched, 16u);
  EXPECT_EQ(stats.committed, 16u);
  EXPECT_EQ(stats.aborted, 0u);
  EXPECT_TRUE(ex.done());
  for (auto& c : cell) EXPECT_EQ(c.load(), 1);
  EXPECT_TRUE(ex.locks().all_free());
}

TEST(SpecExecutor, LaunchIsCappedByWorklist) {
  ThreadPool pool(1);
  SpeculativeExecutor ex(
      pool, 4,
      [](TaskId, IterationContext& ctx) {
        if (!ctx.acquire(0)) return;
      },
      2);
  ex.push_initial(std::vector<TaskId>{0});
  const auto stats = ex.run_round(50);
  EXPECT_EQ(stats.launched, 1u);
  EXPECT_EQ(stats.committed, 1u);
}

TEST(SpecExecutor, EmptyRoundIsHarmless) {
  ThreadPool pool(1);
  SpeculativeExecutor ex(pool, 1, [](TaskId, IterationContext&) {}, 3);
  const auto stats = ex.run_round(8);
  EXPECT_EQ(stats.launched, 0u);
  EXPECT_TRUE(ex.done());
}

TEST(SpecExecutor, ConflictingTasksRetryUntilAllCommit) {
  // All tasks hammer item 0: exactly one commits per round, the rest are
  // aborted and requeued — but everything eventually commits.
  ThreadPool pool(4);
  std::atomic<int> commits{0};
  SpeculativeExecutor ex(
      pool, 1,
      [&](TaskId, IterationContext& ctx) {
        if (!ctx.acquire(0)) return;
        commits.fetch_add(1);
      },
      4);
  std::vector<TaskId> tasks{1, 2, 3, 4, 5, 6, 7, 8};
  ex.push_initial(tasks);
  int rounds = 0;
  while (!ex.done() && rounds < 100) {
    (void)ex.run_round(8);
    ++rounds;
  }
  EXPECT_TRUE(ex.done());
  EXPECT_EQ(commits.load(), 8);
  EXPECT_EQ(ex.totals().committed, 8u);
  EXPECT_EQ(ex.totals().launched,
            ex.totals().committed + ex.totals().aborted);
}

TEST(SpecExecutor, AbortedTasksLeaveNoWrites) {
  // Tasks lock a private item, then a shared item that every task
  // collides on, and write only once both are held. Within one round only
  // the first committer can hold item 0, so every other task aborts having
  // written nothing; the final counter equals the task count exactly.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  SpeculativeExecutor ex(
      pool, 9,
      [&](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(1 + static_cast<std::uint32_t>(t))) return;
        if (!ctx.acquire(0)) return;
        counter.fetch_add(1);
      },
      5);
  std::vector<TaskId> tasks{0, 1, 2, 3, 4, 5, 6, 7};
  ex.push_initial(tasks);
  while (!ex.done()) (void)ex.run_round(8);
  EXPECT_EQ(counter.load(), 8);
  EXPECT_GT(ex.totals().aborted, 0u);  // aborts really happened
  EXPECT_EQ(ex.totals().committed, 8u);
}

TEST(SpecExecutor, VoluntaryAbortViaException) {
  ThreadPool pool(2);
  std::atomic<int> attempts{0};
  SpeculativeExecutor ex(
      pool, 2,
      [&](TaskId, IterationContext&) {
        if (attempts.fetch_add(1) == 0) throw AbortIteration{};
      },
      6);
  ex.push_initial(std::vector<TaskId>{7});
  const auto first = ex.run_round(1);
  EXPECT_EQ(first.aborted, 1u);
  EXPECT_FALSE(ex.done());  // requeued
  const auto second = ex.run_round(1);
  EXPECT_EQ(second.committed, 1u);
  EXPECT_TRUE(ex.done());
}

TEST(SpecExecutor, CommittedPushesJoinWorklistAbortedOnesDoNot) {
  // Tasks 0 and 2 each push a follow-up task 100 + t, then lock item 0.
  // One lane runs them in draw order, so the first commits and the second
  // is doomed: only the winner's push may reach the work-set. The loser
  // pushes again when it reruns, so each follow-up must run exactly once.
  ThreadPool pool(1);
  std::vector<TaskId> followups;
  SpeculativeExecutor ex(
      pool, 1,
      [&](TaskId t, IterationContext& ctx) {
        if (t >= 100) {
          followups.push_back(t);
          return;
        }
        ctx.push(100 + t);
        if (!ctx.acquire(0)) return;
      },
      7);
  ex.push_initial(std::vector<TaskId>{0, 2});
  const RoundStats first = ex.run_round(2);
  EXPECT_EQ(first.committed, 1u);
  EXPECT_EQ(first.aborted, 1u);
  EXPECT_EQ(ex.pending(), 2u);  // the loser, plus the winner's push
  while (!ex.done()) (void)ex.run_round(1);
  std::sort(followups.begin(), followups.end());
  EXPECT_EQ(followups, (std::vector<TaskId>{100, 102}));
}

TEST(SpecExecutor, OneLaneRequeueKeepsSlotOrder) {
  // Round 1 runs tasks 0-5 in FIFO order. Each locks item t/2, so of each
  // pair the first commits and pushes t + 100, and the second aborts. The
  // requeue holds committed pushes and aborted tasks in slot order, and
  // FIFO draws round 2 in exactly that order.
  ThreadPool pool(1);
  std::vector<TaskId> calls;
  SpeculativeExecutor ex(
      pool, 3,
      [&](TaskId t, IterationContext& ctx) {
        calls.push_back(t);
        if (t >= 100) return;
        if (!ctx.acquire(static_cast<std::uint32_t>(t / 2))) return;
        ctx.push(t + 100);
      },
      19, RoundOptions{.worklist = WorklistPolicy::kFifo});
  ex.push_initial(std::vector<TaskId>{0, 1, 2, 3, 4, 5});
  const RoundStats first = ex.run_round(6);
  EXPECT_EQ(first.committed, 3u);
  EXPECT_EQ(first.aborted, 3u);
  EXPECT_EQ(calls, (std::vector<TaskId>{0, 1, 2, 3, 4, 5}));
  calls.clear();
  EXPECT_EQ(ex.run_round(6).launched, 6u);
  EXPECT_EQ(calls, (std::vector<TaskId>{100, 1, 102, 3, 104, 5}));
}

TEST(SpecExecutor, FailedAcquireAbortsWithoutThrowing) {
  // Two tasks lock a private item, then contend for item 0, and write only
  // once both are held. The loser's acquire returns false instead of
  // throwing; it writes nothing, its locks are released, and it is
  // requeued, counted aborted, and commits in the next round.
  ThreadPool pool(1);
  int counter = 0;
  int failed = 0;
  int threw = 0;
  SpeculativeExecutor ex(
      pool, 3,
      [&](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(1 + static_cast<std::uint32_t>(t))) return;
        bool acquired = false;
        try {
          acquired = ctx.acquire(0);
        } catch (...) {
          ++threw;
          throw;
        }
        if (!acquired) {
          EXPECT_TRUE(ctx.doomed());
          ++failed;
          return;
        }
        ++counter;
      },
      14);
  ex.push_initial(std::vector<TaskId>{0, 1});
  const auto first = ex.run_round(2);
  EXPECT_EQ(first.committed, 1u);
  EXPECT_EQ(first.aborted, 1u);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(threw, 0);
  EXPECT_EQ(counter, 1);  // only the winner wrote
  EXPECT_TRUE(ex.locks().all_free());
  EXPECT_EQ(ex.pending(), 1u);  // requeued
  const auto second = ex.run_round(2);
  EXPECT_EQ(second.launched, 1u);
  EXPECT_EQ(second.committed, 1u);
  EXPECT_EQ(counter, 2);
  EXPECT_TRUE(ex.done());
}

TEST(SpecExecutor, RepeatedAcquireHoldsOneEntry) {
  ThreadPool pool(1);
  std::size_t held = 0;
  bool all_acquired = true;
  SpeculativeExecutor ex(
      pool, 4,
      [&](TaskId, IterationContext& ctx) {
        for (int i = 0; i < 3; ++i) all_acquired &= ctx.acquire(3);
        held = ctx.held().size();
      },
      16);
  ex.push_initial(std::vector<TaskId>{0});
  EXPECT_EQ(ex.run_round(1).committed, 1u);
  EXPECT_TRUE(all_acquired);
  EXPECT_EQ(held, 1u);
  EXPECT_TRUE(ex.locks().all_free());
}

TEST(SpecExecutor, DoomedMarkIsClearedWhenTheSlotIsReused) {
  // Round 1: tasks 0 and 1 contend for item 0, so slot 1 ends doomed.
  // Round 2 reuses both slots for tasks that cannot conflict; a stale mark
  // would abort whichever task landed in slot 1.
  ThreadPool pool(1);
  std::vector<bool> doomed_at_entry;
  SpeculativeExecutor ex(
      pool, 8,
      [&](TaskId t, IterationContext& ctx) {
        doomed_at_entry.push_back(ctx.doomed());
        if (!ctx.acquire(t < 2 ? 0 : static_cast<std::uint32_t>(t))) return;
      },
      17);
  ex.push_initial(std::vector<TaskId>{0, 1});
  EXPECT_EQ(ex.run_round(2).aborted, 1u);
  ex.push_initial(std::vector<TaskId>{5});
  const auto second = ex.run_round(2);
  EXPECT_EQ(second.launched, 2u);
  EXPECT_EQ(second.committed, 2u);
  EXPECT_EQ(doomed_at_entry, std::vector<bool>(4, false));
}

TEST(SpecExecutor, SlotIndexIsTheOwnerTagInEveryRound) {
  // One lane runs the slots in order, so the tags seen are 0..m-1 in each
  // round, and each task's lock word carries its own tag.
  ThreadPool pool(1);
  LockManager* locks = nullptr;
  std::vector<std::uint32_t> tags;
  bool owner_matches = true;
  SpeculativeExecutor ex(
      pool, 16,
      [&](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t))) return;
        tags.push_back(ctx.iteration_id());
        owner_matches &= locks->owner(static_cast<std::uint32_t>(t)) ==
                         ctx.iteration_id();
      },
      18);
  locks = &ex.locks();
  for (const TaskId base : {TaskId{0}, TaskId{8}}) {
    tags.clear();
    std::vector<TaskId> tasks;
    for (TaskId t = base; t < base + 5; ++t) tasks.push_back(t);
    ex.push_initial(tasks);
    EXPECT_EQ(ex.run_round(5).committed, 5u);
    EXPECT_EQ(tags, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  }
  EXPECT_TRUE(owner_matches);
}

TEST(SpecExecutor, GrowItemsExtendsLockTable) {
  ThreadPool pool(1);
  SpeculativeExecutor ex(
      pool, 1,
      [&](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t))) return;
      },
      9);
  ex.grow_items(100);
  ex.push_initial(std::vector<TaskId>{99});
  const auto stats = ex.run_round(1);
  EXPECT_EQ(stats.committed, 1u);
}

TEST(SpecExecutor, TotalsAccumulateAcrossRounds) {
  ThreadPool pool(2);
  SpeculativeExecutor ex(
      pool, 4,
      [](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t % 4))) return;
      },
      10);
  std::vector<TaskId> tasks;
  for (TaskId t = 0; t < 12; ++t) tasks.push_back(t);
  ex.push_initial(tasks);
  while (!ex.done()) (void)ex.run_round(6);
  EXPECT_EQ(ex.totals().committed, 12u);
  EXPECT_GE(ex.totals().rounds, 2u);
  EXPECT_EQ(ex.totals().wasted_fraction(),
            static_cast<double>(ex.totals().aborted) /
                static_cast<double>(ex.totals().launched));
}

TEST(RunAdaptive, DrainsWorklistAndRecordsTrace) {
  ThreadPool pool(2);
  SpeculativeExecutor ex(
      pool, 8,
      [](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t % 8))) return;
      },
      11);
  std::vector<TaskId> tasks;
  for (TaskId t = 0; t < 64; ++t) tasks.push_back(t);
  ex.push_initial(tasks);
  ControllerParams p;
  HybridController c(p);
  const auto trace = run_adaptive(ex, c);
  EXPECT_TRUE(ex.done());
  EXPECT_EQ(trace.total_committed(), 64u);
  EXPECT_FALSE(trace.steps.empty());
  EXPECT_EQ(trace.steps.front().m, p.m0);
}

TEST(RunAdaptive, BeforeRoundHookRuns) {
  ThreadPool pool(1);
  SpeculativeExecutor ex(
      pool, 1,
      [](TaskId, IterationContext& ctx) {
        if (!ctx.acquire(0)) return;
      },
      12);
  ex.push_initial(std::vector<TaskId>{0});
  int hook_calls = 0;
  AdaptiveRunConfig cfg;
  cfg.before_round = [&](SpeculativeExecutor&) { ++hook_calls; };
  FixedController c(1);
  (void)run_adaptive(ex, c, cfg);
  EXPECT_EQ(hook_calls, 1);
}

TEST(SpecExecutor, RecycledContextsStayCleanAcrossThousandsOfRounds) {
  // A lane's context is re-armed, not reallocated, for every task it runs.
  // Stale state from an earlier task (held locks, pushed tasks, the doomed
  // mark) must never leak into a later iteration: run a conflicting
  // workload through the same executor for thousands of rounds and check
  // the final state against the sequential oracle every time the worklist
  // drains.
  constexpr std::uint32_t kCells = 12;
  constexpr TaskId kTasks = 50;
  ThreadPool pool(2);
  std::vector<std::int64_t> cells(kCells, 0);
  // Per task: has it aborted voluntarily yet in this wave? Only task t's
  // own iterations touch entry t, and they never overlap.
  std::vector<std::uint8_t> churned(kTasks + 1, 0);
  Rng chaos(321);
  SpeculativeExecutor ex(
      pool, kCells,
      [&](TaskId t, IterationContext& ctx) {
        const auto base = static_cast<std::uint32_t>(t % kCells);
        for (std::uint32_t i = 0; i < 3; ++i) {
          if (!ctx.acquire((base + i) % kCells)) return;
        }
        if (t % 7 == 0 && churned[t] == 0) {
          churned[t] = 1;
          throw AbortIteration{};  // voluntary churn, once per wave
        }
        for (std::uint32_t i = 0; i < 3; ++i) cells[(base + i) % kCells] += 1;
      },
      /*seed=*/77);
  std::uint64_t waves = 0;
  std::uint64_t expected_total = 0;
  for (int wave = 0; wave < 40; ++wave) {
    std::fill(churned.begin(), churned.end(), 0);
    std::vector<TaskId> tasks;
    for (TaskId t = 1; t <= kTasks; ++t) tasks.push_back(t);
    ex.push_initial(tasks);
    expected_total += static_cast<std::uint64_t>(tasks.size()) * 3;
    const std::uint64_t aborted_before = ex.totals().aborted;
    int rounds = 0;
    while (!ex.done() && rounds++ < 100000) {
      (void)ex.run_round(1 + static_cast<std::uint32_t>(chaos.below(16)));
    }
    ASSERT_TRUE(ex.done());
    ASSERT_TRUE(ex.locks().all_free());
    // Tasks 7, 14, ..., 49 each aborted voluntarily once; conflicts add
    // more.
    constexpr std::uint64_t kChurners = kTasks / 7;
    ASSERT_EQ(std::count(churned.begin(), churned.end(), 1), kChurners);
    ASSERT_GE(ex.totals().aborted - aborted_before, kChurners)
        << "wave " << wave;
    std::uint64_t total = 0;
    for (const auto c : cells) total += static_cast<std::uint64_t>(c);
    ASSERT_EQ(total, expected_total) << "wave " << wave;
    ++waves;
  }
  EXPECT_EQ(waves, 40u);
  EXPECT_GT(ex.totals().rounds, 100u);  // the contexts really were reused
}

TEST(RunAdaptive, MaxRoundsIsRespected) {
  ThreadPool pool(1);
  // Operator always aborts, so the worklist never drains.
  SpeculativeExecutor ex(
      pool, 1, [](TaskId, IterationContext&) -> void { throw AbortIteration{}; },
      13);
  ex.push_initial(std::vector<TaskId>{0});
  AdaptiveRunConfig cfg;
  cfg.max_rounds = 7;
  FixedController c(1);
  const auto trace = run_adaptive(ex, c, cfg);
  EXPECT_EQ(trace.steps.size(), 7u);
  EXPECT_FALSE(ex.done());
}

}  // namespace
}  // namespace optipar
