// Multi-lane round stress (DESIGN.md §7) — the TSan target for
// multi-lane rounds. Four lanes draw from sharded worklists, race on the
// lock table, roll back, and splice requeues in the epilogue, so a missing
// fence between the speculative phase, the round barrier, and the commit
// epilogue is a data race TSan can see. Functionally every run must keep
// the exactly-once oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "rt/spec_executor.hpp"
#include "support/thread_pool.hpp"

namespace optipar {
namespace {

constexpr std::uint32_t kCells = 64;
constexpr std::uint32_t kTasks = 400;

struct Effect {
  std::uint32_t first;
  std::uint32_t count;
  std::int64_t delta;
};

std::vector<Effect> make_effects(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Effect> effects(kTasks);
  for (auto& e : effects) {
    e.first = static_cast<std::uint32_t>(rng.below(kCells));
    e.count = 1 + static_cast<std::uint32_t>(rng.below(4));
    e.delta = rng.between(-5, 5);
  }
  return effects;
}

TEST(PipelineStress, MultiLaneRoundsKeepOracleAcrossManyRounds) {
  const auto effects = make_effects(31);
  std::vector<std::int64_t> oracle(kCells, 0);
  for (const auto& e : effects) {
    for (std::uint32_t i = 0; i < e.count; ++i) {
      oracle[(e.first + i) % kCells] += e.delta;
    }
  }
  for (const std::uint32_t m : {4u, 16u, 64u}) {
    std::vector<std::int64_t> cells(kCells, 0);
    ThreadPool pool(4);
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
        m * 131 + 7);
    ex.set_pipeline({.max_lanes = 4});
    std::vector<TaskId> tasks(kTasks);
    std::iota(tasks.begin(), tasks.end(), TaskId{0});
    ex.push_initial(tasks);
    int rounds = 0;
    while (!ex.done() && rounds++ < 100000) (void)ex.run_round(m);
    ASSERT_TRUE(ex.done()) << "m=" << m;
    EXPECT_EQ(ex.totals().committed, kTasks) << "m=" << m;
    EXPECT_TRUE(ex.locks().all_free());
    EXPECT_EQ(cells, oracle) << "m=" << m;
  }
}

}  // namespace
}  // namespace optipar
