#include "support/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace optipar {

namespace {

// Which pool (if any) owns the current thread, and whether the thread is
// already inside a fork-join region (as dispatcher or lane). Both gate the
// serial-inline fallback for nested fork-join calls.
thread_local const ThreadPool* tl_worker_pool = nullptr;
thread_local int tl_fork_depth = 0;

struct ForkDepthGuard {
  ForkDepthGuard() noexcept { ++tl_fork_depth; }
  ~ForkDepthGuard() noexcept { --tl_fork_depth; }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(wake_mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::in_worker_context() const noexcept {
  return tl_worker_pool == this || tl_fork_depth > 0;
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    const std::lock_guard lock(wake_mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::submit after shutdown");
    }
    tasks_.push(std::move(packaged));
  }
  wake_cv_.notify_one();
  return future;
}

void ThreadPool::record_error() noexcept {
  lane_errors_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard lock(error_mutex_);
  if (!job_error_) job_error_ = std::current_exception();
}

void ThreadPool::worker_loop(std::size_t id) {
  tl_worker_pool = this;
  std::uint64_t seen_epoch = 0;
  for (;;) {
    // One wait point for both kinds of work. The epoch, the lane count and
    // the callable are read together under wake_mutex_, so a worker that
    // sat out epoch E can never pair E with E+1's lane count (which would
    // run an E+1 lane twice and corrupt the join count). A fork-join job
    // wins over queued one-off tasks: its dispatcher is waiting on us.
    const WorkFnRef* fn = nullptr;
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(wake_mutex_);
      wake_cv_.wait(lock, [&] {
        return stopping_ || !tasks_.empty() || job_epoch_ != seen_epoch;
      });
      if (job_epoch_ != seen_epoch) {
        seen_epoch = job_epoch_;
        if (id >= job_worker_lanes_) continue;  // this job needs fewer lanes
        fn = job_fn_;
      } else if (!tasks_.empty()) {
        task = std::move(tasks_.front());
        tasks_.pop();
      } else {
        return;  // stopping and drained
      }
    }
    if (fn == nullptr) {
      task();
      continue;
    }
    {
      const ForkDepthGuard nested;
      try {
        (*fn)(id + 1);
      } catch (...) {
        record_error();
      }
    }
    if (job_remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last lane out: wake the dispatcher. Taking the mutex (empty
      // critical section) closes the race with a dispatcher that is
      // between its predicate check and its wait.
      { const std::lock_guard lock(wake_mutex_); }
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::fork_join(std::size_t participants, const WorkFnRef& fn) {
  if (participants == 0) return;
  if (participants == 1 || in_worker_context()) {
    // Single lane, or nested inside a worker/fork-join region: the resident
    // workers are either unnecessary or already occupied, so run every lane
    // inline. Exception semantics match the concurrent path: the first
    // throwing lane stops, later lanes still run, first error is rethrown.
    std::exception_ptr error;
    for (std::size_t lane = 0; lane < participants; ++lane) {
      try {
        fn(lane);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }

  const std::lock_guard fork_lock(fork_mutex_);
  const ForkDepthGuard nested;
  job_error_ = nullptr;
  const std::size_t worker_lanes = participants - 1;  // caller is lane 0
  job_remaining_.store(worker_lanes, std::memory_order_relaxed);
  {
    const std::lock_guard lock(wake_mutex_);
    job_fn_ = &fn;
    job_worker_lanes_ = worker_lanes;
    ++job_epoch_;
  }
  wake_cv_.notify_all();

  try {
    fn(0);
  } catch (...) {
    record_error();
  }

  // Join: spin briefly (rounds are short), then block on done_cv_.
  int spins = 0;
  while (job_remaining_.load(std::memory_order_acquire) != 0) {
    if (++spins > 1024) {
      std::unique_lock lock(wake_mutex_);
      done_cv_.wait(lock, [&] {
        return job_remaining_.load(std::memory_order_acquire) == 0;
      });
      break;
    }
    std::this_thread::yield();
  }

  if (job_error_) {
    std::exception_ptr error = job_error_;
    job_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::parallel_for(std::size_t n, WorkFnRef fn, std::size_t grain) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t blocks = (n + grain - 1) / grain;
  const std::size_t participants =
      std::max<std::size_t>(1, std::min(workers_.size(), blocks));

  std::atomic<std::size_t> cursor{0};
  const auto body = [&](std::size_t) {
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + grain);
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }
  };
  fork_join(participants, WorkFnRef(body));
}

void ThreadPool::run_on_workers(std::size_t k, WorkFnRef fn) {
  k = std::min(k, workers_.size() + 1);  // caller participates as lane 0
  fork_join(k, fn);
}

}  // namespace optipar
