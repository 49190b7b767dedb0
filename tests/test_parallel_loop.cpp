// The hand-wired adaptive loop every app uses: a SpeculativeExecutor over
// an initial work-set, driven to quiescence by run_adaptive with the
// hybrid controller choosing each round's parallelism.
#include <gtest/gtest.h>

#include <atomic>
#include <span>

#include "control/hybrid.hpp"
#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "rt/adaptive_executor.hpp"
#include "rt/spec_executor.hpp"
#include "support/thread_pool.hpp"

namespace optipar {
namespace {

Trace run_loop(SpeculativeExecutor& executor,
               std::span<const TaskId> initial,
               const ControllerParams& params = {},
               const AdaptiveRunConfig& config = {}) {
  executor.push_initial(initial);
  HybridController controller(params);
  return run_adaptive(executor, controller, config);
}

TEST(AdaptiveLoop, RunsEveryTaskExactlyOnceWhenIndependent) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  std::vector<TaskId> initial;
  for (TaskId t = 0; t < 64; ++t) initial.push_back(t);
  SpeculativeExecutor ex(
      pool, 64,
      [&](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t))) return;
        hits[t].fetch_add(1);
      },
      1);
  const auto trace = run_loop(ex, initial);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(trace.total_committed(), 64u);
}

TEST(AdaptiveLoop, PushedWorkIsExecuted) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  const TaskId initial[] = {0};
  SpeculativeExecutor ex(
      pool, 1,
      [&](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(0)) return;
        total.fetch_add(1);
        if (t < 5) ctx.push(t + 1);
      },
      1);
  (void)run_loop(ex, initial);
  EXPECT_EQ(total.load(), 6);
}

TEST(AdaptiveLoop, SolvesMisEndToEnd) {
  Rng rng(1);
  const auto g = gen::gnm_random(300, 1200, rng);
  std::vector<std::uint8_t> state(300, 0);  // 0 undecided, 1 in, 2 out
  std::vector<TaskId> initial;
  for (TaskId v = 0; v < 300; ++v) initial.push_back(v);

  ThreadPool pool(4);
  SpeculativeExecutor ex(
      pool, 300,
      [&](TaskId task, IterationContext& ctx) {
        const auto v = static_cast<NodeId>(task);
        if (!ctx.acquire(v)) return;
        if (state[v] != 0) return;
        for (const NodeId w : g.neighbors(v)) {
          if (!ctx.acquire(w)) return;
        }
        bool blocked = false;
        for (const NodeId w : g.neighbors(v)) blocked |= (state[w] == 1);
        state[v] = blocked ? 2 : 1;
        if (!blocked) {
          for (const NodeId w : g.neighbors(v)) {
            if (state[w] == 0) state[w] = 2;
          }
        }
      },
      1);
  ControllerParams params;
  params.rho = 0.25;
  const auto trace = run_loop(ex, initial, params);

  std::vector<NodeId> in_set;
  for (NodeId v = 0; v < 300; ++v) {
    if (state[v] == 1) in_set.push_back(v);
  }
  EXPECT_TRUE(is_maximal_independent_set(g, in_set));
  EXPECT_GT(trace.steps.size(), 0u);
}

TEST(AdaptiveLoop, SoftPriorityPolicyOrdersExecution) {
  ThreadPool pool(1);
  std::vector<TaskId> order;
  std::vector<TaskId> initial{30, 10, 20};
  SpeculativeExecutor ex(
      pool, 1, [&order](TaskId t, IterationContext&) { order.push_back(t); },
      1, RoundOptions{.worklist = WorklistPolicy::kPriority});
  ex.set_priority_function([](TaskId t) { return t; });
  (void)run_loop(ex, initial);
  EXPECT_EQ(order, (std::vector<TaskId>{10, 20, 30}));
}

TEST(AdaptiveLoop, BeforeRoundHookAndMaxRounds) {
  ThreadPool pool(1);
  int hooks = 0;
  const TaskId initial[] = {0};
  SpeculativeExecutor ex(
      pool, 1,
      [](TaskId, IterationContext&) -> void { throw AbortIteration{}; }, 1);
  AdaptiveRunConfig config;
  config.max_rounds = 3;
  config.before_round = [&](SpeculativeExecutor&) { ++hooks; };
  (void)run_loop(ex, initial, {}, config);
  EXPECT_EQ(hooks, 3);
}

}  // namespace
}  // namespace optipar
