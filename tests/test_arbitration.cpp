// Conflict arbitration: abort-self, the paper's model. The later arrival
// at a held item aborts itself, whatever the two tasks' priorities.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "rt/spec_executor.hpp"
#include "support/barrier.hpp"
#include "support/thread_pool.hpp"

namespace optipar {
namespace {

TEST(AbortSelf, LaterArrivalAbortsRegardlessOfPriority) {
  // Task 9 grabs item 0 and only then lets task 1 (the smaller id, i.e.
  // the earlier priority) try it. Which lane draws which task does not
  // matter: the barrier forces the arrival order either way.
  ThreadPool pool(2);
  SpinBarrier barrier(2);
  std::atomic<int> aborted_task{-1};
  std::atomic<bool> first_9{true};
  std::atomic<bool> first_1{true};
  SpeculativeExecutor ex(
      pool, 8,
      [&](TaskId t, IterationContext& ctx) {
        if (t == 9) {
          if (!first_9.exchange(false)) {
            (void)ctx.acquire(0);
            return;
          }
          (void)ctx.acquire(0);
          barrier.arrive_and_wait();
        } else {
          if (!first_1.exchange(false)) {
            (void)ctx.acquire(0);
            return;
          }
          barrier.arrive_and_wait();
          if (!ctx.acquire(0)) aborted_task.store(static_cast<int>(t));
        }
      },
      3);
  ex.set_pipeline({.max_lanes = 2});  // barrier choreography needs 2 lanes
  std::vector<TaskId> tasks{9, 1};
  ex.push_initial(tasks);
  const auto stats = ex.run_round(2);
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(aborted_task.load(), 1);  // earlier priority lost anyway
  while (!ex.done()) (void)ex.run_round(2);
}

}  // namespace
}  // namespace optipar
