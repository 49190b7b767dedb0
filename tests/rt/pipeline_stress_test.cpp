// Multi-lane round stress (DESIGN.md §7) — the TSan target for
// multi-lane rounds. Four lanes draw from sharded worklists, race on the
// lock table, release aborted tasks' locks mid-round, and release their
// hold lists and splice requeues after the barrier, so a missing fence
// between the speculative phase, the round barrier, and that release is a
// data race TSan can see.
// Functionally every run must keep the exactly-once oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/app_spec.hpp"
#include "rt/spec_executor.hpp"
#include "support/thread_pool.hpp"

namespace optipar {
namespace {

constexpr std::uint32_t kCells = 64;
constexpr std::uint32_t kTasks = 400;

TEST(PipelineStress, MultiLaneRoundsKeepOracleAcrossManyRounds) {
  const auto effects = cell_effects(31, kTasks, kCells);
  const auto oracle = cell_oracle(effects, kCells);
  for (const std::uint32_t m : {4u, 16u, 64u}) {
    std::vector<std::int64_t> cells(kCells, 0);
    ThreadPool pool(4);
    const auto built =
        build_executor(pool, cell_spec(effects, cells), m * 131 + 7);
    SpeculativeExecutor& ex = *built;
    ex.set_pipeline({.max_lanes = 4});
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
