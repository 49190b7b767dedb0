// A fixed-size thread pool following the Core Guidelines concurrency rules:
// threads are created once and reused (CP.41), idle workers wait on a
// condition variable rather than spinning (CP.42), and mutable state is
// packaged with the mutex that guards it (CP.50). The pool is the execution
// substrate for the speculative runtime in src/rt/.
//
// Two execution paths share the resident workers:
//
//  * submit() — one-off tasks through a mutex/CV queue, with a future for
//    completion and exception transport. Unchanged classic pool.
//  * parallel_for() / run_on_workers() — the FORK-JOIN path. The dispatching
//    thread broadcasts one type-erased callable to every resident worker by
//    bumping an epoch counter; workers run their lane and decrement an
//    arrival counter the dispatcher joins on. No per-call allocation, no
//    std::function copies, no packaged_task/future pairs — the
//    round-synchronous executor dispatches thousands of rounds per second
//    through this path.
//
// Nesting: a fork-join entry point invoked from inside a worker lane (or
// re-entrantly from the dispatching thread) degrades to serial inline
// execution — it cannot recruit workers that are already occupied by the
// outer call. Exceptions still propagate identically. run_on_workers
// callables that synchronize across lanes (e.g. barriers) therefore require
// a non-nested call site.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace optipar {

/// Non-owning reference to a callable `void(std::size_t)`. The fork-join
/// entry points take this instead of `std::function` so that dispatching a
/// round costs neither an allocation nor an indirect copy; the referenced
/// callable must outlive the (synchronous) call, which every fork-join use
/// guarantees by construction.
class WorkFnRef {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, WorkFnRef>>>
  // NOLINTNEXTLINE(google-explicit-constructor): intentional implicit ref.
  WorkFnRef(F&& f) noexcept
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_(+[](void* o, std::size_t i) {
          (*static_cast<std::remove_reference_t<F>*>(o))(i);
        }) {}

  void operator()(std::size_t i) const { call_(obj_, i); }

 private:
  void* obj_;
  void (*call_)(void*, std::size_t);
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1). Defaults to hardware concurrency.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; the future reports completion / exceptions.
  std::future<void> submit(std::function<void()> task);

  /// Run fn(i) for i in [0, n) across the pool and wait for all of them.
  /// Work is dealt in contiguous blocks via an atomic cursor, so callers get
  /// reasonable locality without static partitioning. If fn throws, the
  /// throwing lane stops, the remaining lanes finish their work, and the
  /// first exception is rethrown to the caller.
  void parallel_for(std::size_t n, WorkFnRef fn, std::size_t grain = 1);

  /// Run one instance of fn(lane) on each of k lanes (k <= size() + 1; the
  /// caller participates as lane 0) and wait. This is the primitive the
  /// round-synchronous executor uses: each round activates exactly m
  /// "processors". In a non-nested call the k lanes run concurrently, so
  /// the callable may synchronize across lanes (e.g. with a SpinBarrier).
  void run_on_workers(std::size_t k, WorkFnRef fn);

  /// True when the calling thread may not dispatch a concurrent fork-join
  /// (it is one of this pool's workers, or already inside a fork-join
  /// region). Callers that need genuine cross-lane concurrency — barriers —
  /// must fall back to a single lane when this holds.
  [[nodiscard]] bool in_worker_context() const noexcept;

  /// Lifetime count of lane exceptions caught by the fork-join paths —
  /// failure-path observability (scripts/run_chaos.sh asserts this stays 0
  /// when the executor's own lane wrappers absorb every injected fault).
  [[nodiscard]] std::uint64_t lane_errors() const noexcept {
    return lane_errors_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(std::size_t id);
  /// Shared fork-join dispatch: caller is lane 0, workers 0..p-2 are lanes
  /// 1..p-1. Serial-inline when nested. Rethrows the first lane exception.
  void fork_join(std::size_t participants, const WorkFnRef& fn);
  void record_error() noexcept;

  // --- one-off task queue (guarded by wake_mutex_) -------------------------
  std::queue<std::packaged_task<void()>> tasks_;
  bool stopping_ = false;

  // --- fork-join broadcast state ------------------------------------------
  // job_fn_ / job_worker_lanes_ / job_epoch_ are guarded by wake_mutex_:
  // the dispatcher writes all three in one critical section and a worker
  // reads all three in one, so a worker always sees one job's consistent
  // (epoch, lanes, callable) triple.
  const WorkFnRef* job_fn_ = nullptr;
  std::size_t job_worker_lanes_ = 0;
  std::uint64_t job_epoch_ = 0;
  alignas(64) std::atomic<std::size_t> job_remaining_{0};
  std::exception_ptr job_error_;  // first lane exception (error_mutex_)
  std::mutex error_mutex_;
  std::atomic<std::uint64_t> lane_errors_{0};

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;  // workers: new job / queue task / stop
  std::condition_variable done_cv_;  // dispatcher: all lanes arrived
  std::mutex fork_mutex_;  // serializes concurrent external dispatchers

  std::vector<std::thread> workers_;
};

}  // namespace optipar
