// Chaos testing for the speculative runtime: randomized operators mutate a
// shared array under abstract locks with registered undo actions, across
// many seeds, policies, thread counts, and round sizes. The invariant: the
// final state must equal a sequential oracle that applies each task's
// effect exactly once — i.e. rollback leaves *no trace* of aborted
// attempts, no matter how the speculation interleaved.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "control/baselines.hpp"
#include "rt/adaptive_executor.hpp"
#include "rt/checkpoint.hpp"
#include "rt/spec_executor.hpp"
#include "support/failure_policy.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace optipar {
namespace {

/// A task's deterministic effect: add `delta` to cells [first, first+count).
struct Effect {
  std::uint32_t first = 0;
  std::uint32_t count = 1;
  std::int64_t delta = 1;
};

struct ChaosCase {
  std::uint64_t seed;
  std::size_t threads;
  std::uint32_t round_m;
  WorklistPolicy policy;
};

class ExecutorChaosTest : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ExecutorChaosTest, FinalStateMatchesSequentialOracle) {
  const auto param = GetParam();
  constexpr std::uint32_t kCells = 48;
  constexpr std::uint32_t kTasks = 300;

  // Deterministic per-task effects.
  Rng gen_rng(param.seed);
  std::vector<Effect> effects(kTasks);
  for (auto& e : effects) {
    e.first = static_cast<std::uint32_t>(gen_rng.below(kCells));
    e.count = 1 + static_cast<std::uint32_t>(gen_rng.below(4));
    e.delta = gen_rng.between(-5, 5);
  }

  // Sequential oracle: each task applied exactly once.
  std::vector<std::int64_t> oracle(kCells, 0);
  for (const auto& e : effects) {
    for (std::uint32_t i = 0; i < e.count; ++i) {
      oracle[(e.first + i) % kCells] += e.delta;
    }
  }

  // Speculative execution with per-cell locks and undo.
  std::vector<std::int64_t> cells(kCells, 0);
  ThreadPool pool(param.threads);
  SpeculativeExecutor ex(
      pool, kCells,
      [&](TaskId t, IterationContext& ctx) {
        const Effect& e = effects[t];
        for (std::uint32_t i = 0; i < e.count; ++i) {
          const std::uint32_t cell = (e.first + i) % kCells;
          if (!ctx.acquire(cell)) return;
          cells[cell] += e.delta;
          ctx.on_abort([&cells, cell, d = e.delta] { cells[cell] -= d; });
        }
      },
      param.seed * 7 + 1, RoundOptions{.worklist = param.policy});
  // The sweep's multi-thread cases should exercise real multi-lane
  // rounds even when the host has fewer cores than the pool.
  ex.set_pipeline({.max_lanes = param.threads});
  if (param.policy == WorklistPolicy::kPriority) {
    ex.set_priority_function([&effects](TaskId t) {
      return static_cast<std::uint64_t>(effects[t].first);
    });
  }
  std::vector<TaskId> tasks(kTasks);
  std::iota(tasks.begin(), tasks.end(), TaskId{0});
  ex.push_initial(tasks);

  int rounds = 0;
  while (!ex.done() && rounds++ < 100000) {
    (void)ex.run_round(param.round_m);
  }
  ASSERT_TRUE(ex.done());
  EXPECT_EQ(ex.totals().committed, kTasks);
  EXPECT_TRUE(ex.locks().all_free());
  EXPECT_EQ(cells, oracle) << "speculative execution left a trace";
}

std::vector<ChaosCase> chaos_cases() {
  std::vector<ChaosCase> cases;
  std::uint64_t seed = 1;
  for (const auto policy :
       {WorklistPolicy::kRandom, WorklistPolicy::kFifo,
        WorklistPolicy::kLifo, WorklistPolicy::kPriority}) {
    for (const std::size_t threads : {1u, 4u}) {
      for (const std::uint32_t m : {1u, 7u, 48u, 300u}) {
        cases.push_back({seed++, threads, m, policy});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExecutorChaosTest,
                         ::testing::ValuesIn(chaos_cases()));

TEST(ExecutorChaos, OperatorExceptionsBeyondAbortPropagate) {
  // Non-AbortIteration exceptions must not be swallowed as aborts — they
  // escape run_round as real errors.
  ThreadPool pool(1);
  SpeculativeExecutor ex(
      pool, 1,
      [](TaskId, IterationContext&) -> void {
        throw std::runtime_error("app bug");
      },
      1);
  std::vector<TaskId> tasks{0};
  ex.push_initial(tasks);
  EXPECT_THROW((void)ex.run_round(1), std::runtime_error);
}

TEST(ExecutorChaos, QuarantinedTasksAreNotReExecutedAfterRecovery) {
  // Dead-letter replay across checkpoint/restore (DESIGN.md §11): a task
  // poisoned and quarantined before the crash must stay quarantined in the
  // resumed run — never drawn, never re-executed — and the dead-letter
  // ledger itself must survive byte-for-byte.
  const std::string dir = "/tmp/optipar_ckpt_deadletter";
  ::mkdir(dir.c_str(), 0755);
  CheckpointManager::remove_files(dir);

  constexpr std::uint32_t kCells = 8;
  constexpr std::uint32_t kTasks = 60;
  constexpr std::uint64_t kSeed = 5;
  constexpr std::uint64_t kFingerprint = 0xfeedfacecafef00dULL;
  std::atomic<int> poison_runs{0};
  const auto make_operator = [&poison_runs](std::uint32_t cells) {
    return [&poison_runs, cells](TaskId t, IterationContext& ctx) {
      if (t < 4) {  // tasks 0-3 are poisoned: they fault on every attempt
        ++poison_runs;
        throw std::runtime_error("poisoned task");
      }
      if (!ctx.acquire(static_cast<std::uint32_t>(t % cells))) return;
      // Early healthy tasks spawn a second wave so the worklist stays
      // non-empty past the quarantine round: retried tasks re-enter at the
      // BACK of the FIFO, so with 56 healthy initial tasks the poison
      // retries (and their quarantine) land at round 15, and the second
      // wave keeps the run alive until ~round 23.
      if (t >= 4 && t < 34) ctx.push(t + 1000);
    };
  };
  FailurePolicy policy;
  policy.max_retries = 1;
  policy.backoff_base_rounds = 1;
  policy.backoff_cap_rounds = 1;

  CheckpointConfig ccfg;
  ccfg.dir = dir;
  ccfg.every = 1;  // snapshot every round: the kill point IS a snapshot

  std::vector<SpeculativeExecutor::DeadLetter> letters_before;
  int runs_before = 0;
  {
    // One lane: the multi-lane draw phase is timing-dependent (racing
    // chunk tickets), and this test compares ledgers entry-for-entry.
    ThreadPool pool(1);
    SpeculativeExecutor ex(pool, kCells, make_operator(kCells), kSeed,
                           RoundOptions{.worklist = WorklistPolicy::kFifo});
    ex.set_failure_policy(policy);
    std::vector<TaskId> tasks(kTasks);
    std::iota(tasks.begin(), tasks.end(), TaskId{0});
    ex.push_initial(tasks);
    FixedController controller(4);
    CheckpointManager cp(ccfg, kFingerprint);
    AdaptiveRunConfig partial;
    partial.max_rounds = 17;  // past the quarantine round (15), before done
    partial.checkpoint = &cp;
    (void)run_adaptive(ex, controller, partial);
    ASSERT_EQ(ex.dead_letters().size(), 4u);
    ASSERT_FALSE(ex.done());  // the "crash" landed mid-run
    letters_before = ex.dead_letters();
    runs_before = poison_runs.load();
    // max_retries = 1 -> each poison task ran exactly twice.
    ASSERT_EQ(runs_before, 8);
  }

  // Resume in a fresh executor: the ledger comes back from the snapshot...
  ThreadPool pool(1);
  SpeculativeExecutor ex(pool, kCells, make_operator(kCells), kSeed,
                         RoundOptions{.worklist = WorklistPolicy::kFifo});
  ex.set_failure_policy(policy);
  std::vector<TaskId> tasks(kTasks);
  std::iota(tasks.begin(), tasks.end(), TaskId{0});
  ex.push_initial(tasks);
  FixedController controller(4);
  CheckpointManager cp(ccfg, kFingerprint);
  AdaptiveRunConfig resume;
  resume.checkpoint = &cp;
  (void)run_adaptive(ex, controller, resume);

  // ...the run drains, and the poison operators never fired again.
  EXPECT_TRUE(ex.done());
  EXPECT_EQ(poison_runs.load(), runs_before);
  ASSERT_EQ(ex.dead_letters().size(), letters_before.size());
  for (std::size_t i = 0; i < letters_before.size(); ++i) {
    EXPECT_EQ(ex.dead_letters()[i].task, letters_before[i].task);
    EXPECT_EQ(ex.dead_letters()[i].attempts, letters_before[i].attempts);
    EXPECT_EQ(ex.dead_letters()[i].error, letters_before[i].error);
  }
  // 56 healthy initial tasks + 30 second-wave pushes commit; 4 poison
  // tasks die. kTasks only counts the initial wave.
  EXPECT_EQ(ex.totals().committed + ex.dead_letters().size(), kTasks + 30u);
}

}  // namespace
}  // namespace optipar
