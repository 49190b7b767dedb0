#include "rt/item_lock.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "support/thread_pool.hpp"

namespace optipar {
namespace {

TEST(LockManager, StartsAllFree) {
  LockManager lm(8);
  EXPECT_EQ(lm.size(), 8u);
  EXPECT_TRUE(lm.all_free());
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(lm.owner(i), LockManager::kFree);
  }
}

TEST(LockManager, AcquireReleaseCycle) {
  LockManager lm(4);
  EXPECT_EQ(lm.acquire(2, 7), LockResult::kTaken);
  EXPECT_EQ(lm.owner(2), 7u);
  EXPECT_FALSE(lm.all_free());
  lm.release(2, 7);
  EXPECT_TRUE(lm.all_free());
}

TEST(LockManager, ConflictingAcquireFails) {
  LockManager lm(4);
  EXPECT_EQ(lm.acquire(1, 10), LockResult::kTaken);
  EXPECT_EQ(lm.acquire(1, 11), LockResult::kConflict);
  EXPECT_EQ(lm.owner(1), 10u);
}

TEST(LockManager, ReentrantAcquireSucceeds) {
  LockManager lm(4);
  EXPECT_EQ(lm.acquire(1, 10), LockResult::kTaken);
  EXPECT_EQ(lm.acquire(1, 10), LockResult::kHeld);
  lm.release(1, 10);
  EXPECT_TRUE(lm.all_free());
}

TEST(LockManager, RelaxedAcquireReportsTakenHeldOrConflict) {
  LockManager lm(4);
  EXPECT_EQ(lm.acquire_relaxed(3, 1), LockResult::kTaken);
  EXPECT_EQ(lm.acquire_relaxed(3, 1), LockResult::kHeld);
  EXPECT_EQ(lm.acquire_relaxed(3, 2), LockResult::kConflict);
  EXPECT_EQ(lm.owner(3), 1u);
  lm.release_relaxed(3, 1);
  EXPECT_EQ(lm.acquire_relaxed(3, 2), LockResult::kTaken);
  lm.release_relaxed(3, 2);
  EXPECT_TRUE(lm.all_free());
}

TEST(LockManager, OutOfRangeThrows) {
  LockManager lm(4);
  EXPECT_THROW((void)lm.acquire(4, 0), std::out_of_range);
  EXPECT_THROW((void)lm.acquire_relaxed(4, 0), std::out_of_range);
  EXPECT_THROW((void)lm.owner(9), std::out_of_range);
  EXPECT_THROW((void)lm.release(9, 0), std::out_of_range);
}

TEST(LockManager, GrowPreservesOwnersAndFreesNewSlots) {
  LockManager lm(2);
  ASSERT_EQ(lm.acquire(0, 5), LockResult::kTaken);
  lm.grow(10);
  EXPECT_EQ(lm.size(), 10u);
  EXPECT_EQ(lm.owner(0), 5u);
  for (std::uint32_t i = 2; i < 10; ++i) {
    EXPECT_EQ(lm.owner(i), LockManager::kFree);
  }
  lm.grow(3);  // shrink request is a no-op
  EXPECT_EQ(lm.size(), 10u);
}

TEST(LockManager, ExactlyOneWinnerUnderContention) {
  LockManager lm(1);
  ThreadPool pool(4);
  std::atomic<int> winners{0};
  pool.run_on_workers(4, [&](std::size_t lane) {
    if (lm.acquire(0, static_cast<std::uint32_t>(lane)) ==
        LockResult::kTaken) {
      winners.fetch_add(1);
    }
  });
  EXPECT_EQ(winners.load(), 1);
  EXPECT_NE(lm.owner(0), LockManager::kFree);
}

TEST(LockManager, ManyItemsManyThreadsDisjointAcquires) {
  constexpr std::size_t kItems = 256;
  LockManager lm(kItems);
  ThreadPool pool(4);
  // Lane L of 5 takes items L, L + 5, ...: disjoint, and interleaved so
  // neighbouring words are hit from different threads.
  const auto each_item = [&](const auto& fn) {
    pool.run_on_workers(5, [&](std::size_t lane) {
      for (std::size_t i = lane; i < kItems; i += 5) {
        fn(static_cast<std::uint32_t>(i));
      }
    });
  };
  each_item([&](std::uint32_t i) {
    ASSERT_EQ(lm.acquire(i, i * 2 + 1), LockResult::kTaken);
  });
  EXPECT_FALSE(lm.all_free());
  each_item([&](std::uint32_t i) { lm.release(i, i * 2 + 1); });
  EXPECT_TRUE(lm.all_free());
}

}  // namespace
}  // namespace optipar
