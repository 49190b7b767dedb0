#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <dirent.h>

#include <array>
#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "support/barrier.hpp"

namespace optipar {
namespace {

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  auto f = pool.submit([&] { hits.fetch_add(1); });
  f.get();
  EXPECT_EQ(hits.load(), 1);
}

TEST(ThreadPool, SubmitPropagatesExceptionsThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
}

TEST(ThreadPool, ManySubmitsAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> hits{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&] { hits.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(hits.load(), 200);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ThreadPool, ParallelForWithGrainVisitsAll) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { visits[i].fetch_add(1); }, 64);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForWorksOnSingleThreadPool) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, RunOnWorkersGivesDistinctLaneIndices) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::size_t> lanes;
  pool.run_on_workers(4, [&](std::size_t lane) {
    const std::lock_guard lock(mu);
    lanes.insert(lane);
  });
  EXPECT_EQ(lanes, (std::set<std::size_t>{0, 1, 2, 3}));
}

TEST(ThreadPool, RunOnWorkersClampsToPoolSizePlusCaller) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.run_on_workers(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);  // 2 workers + calling thread
}

TEST(ThreadPool, ParallelForPropagatesLaneExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("lane boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, NestedParallelForRunsSeriallyAndPropagatesExceptions) {
  // A fork-join region entered from inside a lane cannot recruit the
  // already-busy workers: it must degrade to serial execution, complete
  // every index, and still transport exceptions out through both levels.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(50, [&](std::size_t i) {
      inner_total.fetch_add(static_cast<int>(i));
    });
  });
  EXPECT_EQ(inner_total.load(), 4 * 1225);

  EXPECT_THROW(pool.parallel_for(2,
                                 [&](std::size_t) {
                                   pool.parallel_for(8, [&](std::size_t i) {
                                     if (i == 5) {
                                       throw std::runtime_error("nested");
                                     }
                                   });
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SingleWorkerPoolMakesProgressOnEveryPath) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.run_on_workers(2, [&](std::size_t lane) {
    sum.fetch_add(static_cast<int>(lane) + 1);
  });
  EXPECT_EQ(sum.load(), 3);  // lanes 0 and 1 both ran
  auto f = pool.submit([&] { sum.fetch_add(10); });
  f.get();
  EXPECT_EQ(sum.load(), 13);
  pool.parallel_for(10, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 23);
}

TEST(ThreadPool, FortyThousandForkJoinsReuseResidentWorkers) {
  // The fork-join path must not create a thread, fd, or queue entry per
  // call — dispatch 10k parallel_for and 10k run_on_workers rounds twice
  // and check the process' thread count stays put.
  ThreadPool pool(2);
  const auto count_threads = [] {
    std::size_t n = 0;
    // /proc/self/task has one entry per live thread on Linux.
    if (auto* d = opendir("/proc/self/task")) {
      while (readdir(d) != nullptr) ++n;
      closedir(d);
    }
    return n;
  };
  std::atomic<std::uint64_t> total{0};
  const auto burst = [&] {
    for (int call = 0; call < 10000; ++call) {
      pool.parallel_for(3, [&](std::size_t) { total.fetch_add(1); });
      pool.run_on_workers(3, [&](std::size_t) { total.fetch_add(1); });
    }
  };
  burst();
  const std::size_t threads_after_warmup = count_threads();
  burst();
  EXPECT_EQ(count_threads(), threads_after_warmup);
  EXPECT_EQ(total.load(), 2u * 10000u * 6u);
}

TEST(ThreadPool, AlternatingLaneCountsRunEveryLaneExactlyOnce) {
  // Regression for the fork-join publication race: a worker that sat out
  // a narrow dispatch must never pair that epoch with the next, wider
  // dispatch's lane count — it would run a lane twice and break the join.
  // Alternating narrow and wide dispatches keeps idle workers racing the
  // next publication on every other call.
  ThreadPool pool(4);
  constexpr std::size_t kMaxLanes = 5;  // 4 workers + the caller
  std::array<std::atomic<int>, kMaxLanes> runs{};
  for (int call = 0; call < 20000; ++call) {
    const std::size_t k = call % 2 == 0 ? 2 : 2 + (call / 2) % 4;
    pool.run_on_workers(k, [&](std::size_t lane) { runs[lane].fetch_add(1); });
    for (std::size_t lane = 0; lane < kMaxLanes; ++lane) {
      ASSERT_EQ(runs[lane].exchange(0), lane < k ? 1 : 0)
          << "dispatch " << call << " with " << k << " lanes, lane " << lane;
    }
  }
}

TEST(SpinBarrier, SynchronizesPhases) {
  constexpr std::size_t kParties = 4;
  ThreadPool pool(kParties - 1);
  SpinBarrier barrier(kParties);
  std::atomic<int> phase_counter{0};
  std::vector<int> seen(kParties, -1);

  pool.run_on_workers(kParties, [&](std::size_t lane) {
    phase_counter.fetch_add(1);
    barrier.arrive_and_wait();
    // After the barrier every party must observe all arrivals.
    seen[lane] = phase_counter.load();
    barrier.arrive_and_wait();
  });
  for (const int s : seen) EXPECT_EQ(s, kParties);
}

TEST(SpinBarrier, IsReusableAcrossManyRounds) {
  constexpr std::size_t kParties = 3;
  ThreadPool pool(kParties - 1);
  SpinBarrier barrier(kParties);
  std::atomic<int> counter{0};
  pool.run_on_workers(kParties, [&](std::size_t) {
    for (int round = 0; round < 50; ++round) {
      counter.fetch_add(1);
      barrier.arrive_and_wait();
    }
  });
  EXPECT_EQ(counter.load(), 150);
}

}  // namespace
}  // namespace optipar
