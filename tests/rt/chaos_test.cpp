// Failure-hardening tests (DESIGN.md §8): deterministic fault injection,
// retry/backoff and dead-letter quarantine, pool-lane salvage with graceful
// serial degradation, and the livelock watchdog. The master invariant is
// the same as the fault-free chaos suite — speculation leaves no trace —
// now required to hold while faults fire at the operator, lock-acquire and
// pool-lane sites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/app_spec.hpp"
#include "control/hybrid.hpp"
#include "rt/adaptive_executor.hpp"
#include "rt/fault_injector.hpp"
#include "rt/spec_executor.hpp"
#include "support/failure_policy.hpp"
#include "support/telemetry/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace optipar {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector: the PRF decision layer.
// ---------------------------------------------------------------------------

TEST(FaultInjector, DecisionsAreSeedDeterministicAndStateless) {
  FaultInjector a(42);
  FaultInjector b(42);
  a.set_all_rates(0.3);
  b.set_all_rates(0.3);
  for (std::uint64_t t = 0; t < 500; ++t) {
    for (std::uint64_t attempt = 1; attempt <= 3; ++attempt) {
      EXPECT_EQ(a.should_fire(FaultSite::kOperatorThrow, t, attempt),
                b.should_fire(FaultSite::kOperatorThrow, t, attempt));
    }
  }
  // should_fire is pure: asking twice gives the same answer and does not
  // advance any stream.
  const bool first = a.should_fire(FaultSite::kPoolLane, 7, 1);
  EXPECT_EQ(first, a.should_fire(FaultSite::kPoolLane, 7, 1));
}

TEST(FaultInjector, RateEndpointsAndCounters) {
  FaultInjector inj(7);
  EXPECT_EQ(inj.rate(FaultSite::kOperatorThrow), 0.0);  // default: off
  for (std::uint64_t t = 0; t < 200; ++t) {
    EXPECT_FALSE(inj.should_fire(FaultSite::kOperatorThrow, t, 1));
  }
  inj.set_rate(FaultSite::kOperatorThrow, 1.0);
  for (std::uint64_t t = 0; t < 200; ++t) {
    EXPECT_TRUE(inj.should_fire(FaultSite::kOperatorThrow, t, 1));
  }
  EXPECT_EQ(inj.total_fired(), 0u);  // should_fire never counts
  EXPECT_THROW(inj.maybe_throw(FaultSite::kOperatorThrow, 0, 1),
               InjectedFault);
  EXPECT_EQ(inj.fired(FaultSite::kOperatorThrow), 1u);
  EXPECT_EQ(inj.total_fired(), 1u);
  // An observed rate roughly tracks the configured rate.
  inj.set_rate(FaultSite::kOperatorDelay, 0.25);
  int fired = 0;
  for (std::uint64_t t = 0; t < 4000; ++t) {
    fired += inj.should_fire(FaultSite::kOperatorDelay, t, 1) ? 1 : 0;
  }
  EXPECT_GT(fired, 4000 * 0.15);
  EXPECT_LT(fired, 4000 * 0.35);
}

TEST(FaultInjector, SitesAndSeedsAreIndependent) {
  FaultInjector a(1);
  FaultInjector b(2);
  a.set_all_rates(0.5);
  b.set_all_rates(0.5);
  int site_diff = 0;
  int seed_diff = 0;
  for (std::uint64_t t = 0; t < 300; ++t) {
    if (a.should_fire(FaultSite::kOperatorThrow, t, 1) !=
        a.should_fire(FaultSite::kOperatorDelay, t, 1)) {
      ++site_diff;
    }
    if (a.should_fire(FaultSite::kOperatorThrow, t, 1) !=
        b.should_fire(FaultSite::kOperatorThrow, t, 1)) {
      ++seed_diff;
    }
  }
  EXPECT_GT(site_diff, 0);  // sites do not alias
  EXPECT_GT(seed_diff, 0);  // seeds do not alias
}

// ---------------------------------------------------------------------------
// Executor under injected faults: the no-trace invariant must survive.
// ---------------------------------------------------------------------------

TEST(ChaosHardened, OracleHoldsUnderInjectedFaults) {
  constexpr std::uint32_t kCells = 32;
  constexpr std::uint32_t kTasks = 200;
  const auto effects = cell_effects(11, kTasks, kCells);
  const auto oracle = cell_oracle(effects, kCells);

  for (const std::size_t threads : {1u, 4u}) {
    std::vector<std::int64_t> cells(kCells, 0);
    ThreadPool pool(threads);
    const auto built = build_executor(pool, cell_spec(effects, cells), 99);
    SpeculativeExecutor& ex = *built;
    // Exercise true multi-lane rounds even on a single-core host.
    ex.set_pipeline({.max_lanes = threads});
    FaultInjector inj(1234);
    inj.set_rate(FaultSite::kOperatorThrow, 0.25);
    inj.set_rate(FaultSite::kOperatorDelay, 0.10);
    inj.set_rate(FaultSite::kLockAcquire, 0.10);
    ex.set_fault_injector(&inj);
    // Retries are re-keyed by attempt, so a generous budget drives the
    // per-task quarantine probability to ~0.25^65 — effectively zero.
    FailurePolicy fp;
    fp.max_retries = 64;
    fp.backoff_base_rounds = 1;
    fp.backoff_cap_rounds = 4;
    ex.set_failure_policy(fp);

    int rounds = 0;
    while (!ex.done() && rounds++ < 100000) (void)ex.run_round(16);
    ASSERT_TRUE(ex.done());
    EXPECT_EQ(ex.totals().committed, kTasks);
    EXPECT_TRUE(ex.dead_letters().empty());
    EXPECT_GT(ex.totals().retried, 0u);  // faults actually fired
    EXPECT_GT(inj.total_fired(), 0u);
    EXPECT_TRUE(ex.locks().all_free());
    EXPECT_EQ(ex.locks().owned_count(), 0u);
    EXPECT_EQ(cells, oracle)
        << "threads=" << threads << ": injected faults left a trace";
  }
}

TEST(ChaosHardened, SameFaultSeedReplaysByteIdentically) {
  // ISSUE contract: two chaos runs with the same fault seed produce
  // identical traces. Single lane removes scheduling nondeterminism; the
  // injector's PRF removes injection nondeterminism.
  constexpr std::uint32_t kCells = 24;
  constexpr std::uint32_t kTasks = 120;
  const auto effects = cell_effects(5, kTasks, kCells);

  struct RunResult {
    std::vector<std::vector<std::uint32_t>> per_round;
    std::vector<SpeculativeExecutor::DeadLetter> dead;
  };
  const auto run_once = [&]() {
    RunResult out;
    std::vector<std::int64_t> cells(kCells, 0);
    ThreadPool pool(1);
    const auto built = build_executor(pool, cell_spec(effects, cells), 77);
    SpeculativeExecutor& ex = *built;
    FaultInjector inj(31337);
    inj.set_rate(FaultSite::kOperatorThrow, 0.5);
    ex.set_fault_injector(&inj);
    FailurePolicy fp;
    fp.max_retries = 2;  // low budget: quarantines must occur and replay
    fp.backoff_cap_rounds = 3;
    ex.set_failure_policy(fp);
    int rounds = 0;
    while (!ex.done() && rounds++ < 100000) {
      const RoundStats s = ex.run_round(8);
      out.per_round.push_back(
          {s.launched, s.committed, s.aborted, s.retried, s.quarantined,
           s.injected});
    }
    out.dead = ex.dead_letters();
    return out;
  };

  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.per_round, b.per_round);
  ASSERT_EQ(a.dead.size(), b.dead.size());
  EXPECT_FALSE(a.dead.empty());  // the low retry budget did quarantine
  for (std::size_t i = 0; i < a.dead.size(); ++i) {
    EXPECT_EQ(a.dead[i].task, b.dead[i].task);
    EXPECT_EQ(a.dead[i].attempts, b.dead[i].attempts);
    EXPECT_EQ(a.dead[i].error, b.dead[i].error);
  }
}

TEST(ChaosHardened, ZeroRateInjectorIsByteTransparent) {
  // An attached injector with rate 0 (and an installed policy) must not
  // perturb the schedule: same per-round stats as a bare executor.
  constexpr std::uint32_t kCells = 24;
  constexpr std::uint32_t kTasks = 100;
  const auto effects = cell_effects(3, kTasks, kCells);
  const auto run_once = [&](bool hardened) {
    std::vector<std::vector<std::uint32_t>> per_round;
    std::vector<std::int64_t> cells(kCells, 0);
    ThreadPool pool(1);
    const auto built = build_executor(pool, cell_spec(effects, cells), 123);
    SpeculativeExecutor& ex = *built;
    FaultInjector inj(9);  // all rates default to 0
    if (hardened) {
      ex.set_fault_injector(&inj);
      ex.set_failure_policy(FailurePolicy{});
    }
    int rounds = 0;
    while (!ex.done() && rounds++ < 100000) {
      const RoundStats s = ex.run_round(8);
      per_round.push_back({s.launched, s.committed, s.aborted, s.retried,
                           s.quarantined, s.injected});
    }
    return per_round;
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

// ---------------------------------------------------------------------------
// Retry, quarantine, and the legacy rethrow contract.
// ---------------------------------------------------------------------------

TEST(FailureHandling, TransientFaultRetriesThenCommits) {
  ThreadPool pool(1);
  std::atomic<int> failures_left{3};
  std::atomic<int> executions{0};
  SpeculativeExecutor ex(
      pool, 1,
      [&](TaskId, IterationContext&) {
        executions.fetch_add(1);
        if (failures_left.fetch_sub(1) > 0) {
          throw std::runtime_error("transient");
        }
      },
      1);
  FailurePolicy fp;
  fp.max_retries = 5;
  fp.backoff_base_rounds = 2;
  fp.backoff_cap_rounds = 8;
  ex.set_failure_policy(fp);
  std::vector<TaskId> tasks{0};
  ex.push_initial(tasks);
  bool saw_deferred = false;
  int rounds = 0;
  while (!ex.done() && rounds++ < 1000) {
    (void)ex.run_round(4);
    saw_deferred = saw_deferred || ex.deferred_count() > 0;
  }
  ASSERT_TRUE(ex.done());
  EXPECT_EQ(executions.load(), 4);  // 3 failures + the committing attempt
  EXPECT_EQ(ex.totals().committed, 1u);
  EXPECT_EQ(ex.totals().retried, 3u);
  EXPECT_TRUE(saw_deferred);  // backoff actually parked the task
  EXPECT_TRUE(ex.dead_letters().empty());
  EXPECT_GT(rounds, 4);  // backoff spans rounds; it did not retry inline
}

TEST(FailureHandling, PermanentFaultIsQuarantinedWithContext) {
  ThreadPool pool(2);
  SpeculativeExecutor ex(
      pool, 4,
      [&](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t))) return;
        if (t == 2) throw std::runtime_error("task two is poisoned");
      },
      1);
  FailurePolicy fp;
  fp.max_retries = 3;
  fp.backoff_base_rounds = 1;
  fp.backoff_cap_rounds = 2;
  ex.set_failure_policy(fp);
  std::vector<TaskId> tasks{0, 1, 2, 3};
  ex.push_initial(tasks);
  RoundStats last;
  int rounds = 0;
  while (!ex.done() && rounds++ < 1000) {
    const RoundStats s = ex.run_round(4);
    if (s.first_error) last = s;
  }
  ASSERT_TRUE(ex.done());
  EXPECT_EQ(ex.totals().committed, 3u);
  EXPECT_EQ(ex.totals().quarantined, 1u);
  ASSERT_EQ(ex.dead_letters().size(), 1u);
  const auto& dl = ex.dead_letters()[0];
  EXPECT_EQ(dl.task, 2u);
  EXPECT_EQ(dl.attempts, 4u);  // initial run + max_retries
  EXPECT_EQ(dl.error, "task two is poisoned");
  // The swallowed exception is still observable on the round stats.
  ASSERT_TRUE(last.first_error);
  EXPECT_THROW(std::rethrow_exception(last.first_error),
               std::runtime_error);
  EXPECT_TRUE(ex.locks().all_free());
}

TEST(FailureHandling, LegacyRethrowWithoutPolicyIsPreserved) {
  // Mirrors the long-standing contract test: without a FailurePolicy
  // run_round surfaces the first error.
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

// ---------------------------------------------------------------------------
// Pool-lane death: salvage, then graceful serial degradation.
// ---------------------------------------------------------------------------

TEST(FailureHandling, PoolLaneDeathDegradesToSerialAndCompletes) {
  constexpr std::uint32_t kCells = 16;
  constexpr std::uint32_t kTasks = 64;
  std::vector<std::int64_t> cells(kCells, 0);
  ThreadPool pool(4);
  SpeculativeExecutor ex(
      pool, kCells,
      [&](TaskId t, IterationContext& ctx) {
        const std::uint32_t cell = static_cast<std::uint32_t>(t % kCells);
        if (!ctx.acquire(cell)) return;
        cells[cell] += 1;
      },
      9);
  // Lane deaths need parallel lanes: lift the core-count cap.
  ex.set_pipeline({.max_lanes = 4});
  FaultInjector inj(777);
  inj.set_rate(FaultSite::kPoolLane, 1.0);  // every parallel lane dies
  ex.set_fault_injector(&inj);
  FailurePolicy fp;
  fp.max_pool_failures = 2;
  ex.set_failure_policy(fp);
  std::vector<TaskId> tasks(kTasks);
  std::iota(tasks.begin(), tasks.end(), TaskId{0});
  ex.push_initial(tasks);
  int rounds = 0;
  while (!ex.done() && rounds++ < 10000) (void)ex.run_round(16);
  ASSERT_TRUE(ex.done());
  EXPECT_TRUE(ex.serial_degraded());
  EXPECT_EQ(ex.pool_failures(), 2u);  // degraded exactly at the budget
  EXPECT_EQ(ex.totals().committed, kTasks);  // no task lost in salvage
  EXPECT_TRUE(ex.locks().all_free());
  for (const auto v : cells) EXPECT_EQ(v, 4);  // 64 tasks over 16 cells
}

TEST(FailureHandling, LaneThatDiesMidRoundFinalizesWhatItRan) {
  // A lane dies holding a drawn chunk, with probability 0.3 per chunk, so
  // it often dies after running earlier chunks of the round. Its commits
  // still hold their locks and its requeue buffer is unspliced when it
  // dies: the lane must still release and splice them, and salvage must
  // requeue exactly the drawn chunk it never ran.
  constexpr std::uint32_t kCells = 48;
  constexpr std::uint32_t kTasks = 600;
  const auto effects = cell_effects(5, kTasks, kCells);
  std::vector<std::int64_t> cells(kCells, 0);
  AppSpec spec = cell_spec(effects, cells);
  // Per round: the threads that ran an operator call, and the threads
  // whose lane died. A lane runs nothing after it dies, so a thread in
  // both sets died after running part of the round.
  std::mutex mu;
  std::set<std::thread::id> ran;
  std::set<std::thread::id> died;
  std::uint64_t calls = 0;
  const TaskOperator cell_op = spec.op;
  spec.op = [&](TaskId t, IterationContext& ctx) {
    {
      const std::lock_guard lock(mu);
      ++calls;
      ran.insert(std::this_thread::get_id());
    }
    cell_op(t, ctx);
  };
  ThreadPool pool(4);
  const auto ex = build_executor(pool, spec, 31);
  ex->set_pipeline({.max_lanes = 4});
  FaultInjector inj(2024);
  inj.set_rate(FaultSite::kPoolLane, 0.3);
  inj.set_fire_hook([&](FaultSite, std::uint64_t, std::uint64_t) {
    const std::lock_guard lock(mu);
    died.insert(std::this_thread::get_id());
  });
  ex->set_fault_injector(&inj);
  FailurePolicy fp;
  fp.max_pool_failures = 1000000;  // never degrade: every round has 4 lanes
  ex->set_failure_policy(fp);
  int died_after_running = 0;
  int rounds = 0;
  while (!ex->done() && rounds++ < 10000) {
    ran.clear();
    died.clear();
    (void)ex->run_round(64);
    // Every lane, a dead one too, releases its locks before the round ends.
    ASSERT_EQ(ex->locks().owned_count(), 0u) << "round " << rounds;
    for (const std::thread::id id : died) {
      if (ran.count(id) != 0) ++died_after_running;
    }
  }
  ASSERT_TRUE(ex->done());
  EXPECT_FALSE(ex->serial_degraded());
  EXPECT_GT(died_after_running, 0);
  EXPECT_EQ(calls, ex->totals().launched);
  EXPECT_EQ(ex->totals().launched,
            ex->totals().committed + ex->totals().aborted);
  EXPECT_EQ(ex->totals().committed, kTasks);
  EXPECT_EQ(cells, cell_oracle(effects, kCells));
}

// ---------------------------------------------------------------------------
// Livelock watchdog through run_adaptive.
// ---------------------------------------------------------------------------

/// Wraps HybridController and publishes the allocation it last proposed, so
/// the storm operator below can key its behavior on the APPLIED m without
/// any timing-dependent peer detection.
class StormController final : public Controller {
 public:
  StormController(const ControllerParams& params,
                  std::atomic<std::uint32_t>& applied)
      : inner_(params), applied_(applied) {
    applied_.store(inner_.initial_m());
  }
  [[nodiscard]] std::uint32_t initial_m() const override {
    return inner_.initial_m();
  }
  std::uint32_t observe(const RoundStats& round) override {
    const std::uint32_t m = inner_.observe(round);
    applied_.store(m);
    return m;
  }
  void reset() override { inner_.reset(); }
  void clamp_max(std::uint32_t m_cap) override {
    inner_.clamp_max(m_cap);
    applied_.store(std::min(applied_.load(), m_cap));
  }
  [[nodiscard]] std::string name() const override { return "storm"; }
  [[nodiscard]] const HybridController& inner() const noexcept {
    return inner_;
  }

 private:
  HybridController inner_;
  std::atomic<std::uint32_t>& applied_;
};

TEST(Watchdog, AbortStormDegradesToSerialAndCompletes) {
  // A total abort storm in the spirit of the paper's K_d^n worst case:
  // every task refuses to commit while the round allocation exceeds one,
  // so NO m >= 2 makes progress and the controller's own m_min >= 2 floor
  // keeps it from ever proposing serial. Only the watchdog's forced m = 1
  // can finish the workload.
  constexpr std::uint32_t kTasks = 24;
  ThreadPool pool(4);
  std::atomic<std::uint32_t> applied_m{0};
  SpeculativeExecutor ex(
      pool, kTasks,
      [&](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t))) return;
        if (applied_m.load(std::memory_order_acquire) > 1) {
          throw AbortIteration{};
        }
      },
      5);
  std::vector<TaskId> tasks(kTasks);
  std::iota(tasks.begin(), tasks.end(), TaskId{0});
  ex.push_initial(tasks);

  ControllerParams params;
  params.m0 = 8;
  params.m_min = 2;  // the controller alone can never reach serial
  params.m_max = 16;
  StormController controller(params, applied_m);
  AdaptiveRunConfig config;
  config.watchdog_rounds = 8;
  config.serial_grace = 50;
  const Trace trace = run_adaptive(ex, controller, config);

  ASSERT_TRUE(ex.done());
  EXPECT_TRUE(trace.watchdog_fired());
  EXPECT_EQ(ex.totals().committed, kTasks);
  // Before degradation: nothing committed. After: strictly serial rounds.
  for (const auto& step : trace.steps) {
    if (step.step < trace.degraded_at_step) {
      EXPECT_EQ(step.committed, 0u);
    } else if (step.step > trace.degraded_at_step) {
      EXPECT_EQ(step.m, 1u);
      EXPECT_TRUE(step.degraded);
    }
  }
  // The controller was clamped, not bypassed.
  EXPECT_EQ(controller.inner().params().m_max, 1u);
}

TEST(Watchdog, HopelessWorkloadRaisesLivelockErrorNotSpin) {
  // Every task always aborts, even serially: after degradation plus the
  // serial grace period the loop must surface a structured diagnostic
  // instead of burning max_rounds.
  ThreadPool pool(2);
  SpeculativeExecutor ex(
      pool, 4,
      [](TaskId, IterationContext&) -> void { throw AbortIteration{}; }, 3);
  std::vector<TaskId> tasks{0, 1, 2, 3};
  ex.push_initial(tasks);
  ControllerParams params;
  params.m0 = 4;
  HybridController controller(params);
  AdaptiveRunConfig config;
  config.watchdog_rounds = 5;
  config.serial_grace = 4;
  try {
    (void)run_adaptive(ex, controller, config);
    FAIL() << "expected LivelockError";
  } catch (const LivelockError& e) {
    EXPECT_EQ(e.stalled_rounds(), 4u);
    EXPECT_EQ(e.pending(), 4u);  // nothing was lost, nothing retired
    EXPECT_EQ(e.quarantined(), 0u);
    EXPECT_NE(std::string(e.what()).find("zero-progress"),
              std::string::npos);
  }
}

TEST(Watchdog, QuarantineCountsAsProgress) {
  // A workload whose failures are being quarantined is draining, not
  // livelocked: the watchdog must not fire.
  ThreadPool pool(2);
  SpeculativeExecutor ex(
      pool, 8,
      [](TaskId, IterationContext&) -> void {
        throw std::runtime_error("always fails");
      },
      3);
  FailurePolicy fp;
  fp.max_retries = 0;  // quarantine on first failure
  ex.set_failure_policy(fp);
  std::vector<TaskId> tasks(8);
  std::iota(tasks.begin(), tasks.end(), TaskId{0});
  ex.push_initial(tasks);
  ControllerParams params;
  params.m0 = 4;
  HybridController controller(params);
  AdaptiveRunConfig config;
  config.watchdog_rounds = 3;
  const Trace trace = run_adaptive(ex, controller, config);
  ASSERT_TRUE(ex.done());
  EXPECT_FALSE(trace.watchdog_fired());
  EXPECT_EQ(trace.total_quarantined(), 8u);
  EXPECT_EQ(ex.dead_letters().size(), 8u);
}

// ---------------------------------------------------------------------------
// Telemetry surfacing (DESIGN.md §10): absorbed failures must be visible.
// ---------------------------------------------------------------------------

TEST(TelemetrySurfacing, FirstErrorAndQuarantinesReachTraceAndEvents) {
  // One poisoned task among friends: the failure policy absorbs the throws
  // (retry, then quarantine), so nothing surfaces as an exception — the
  // trace's per-round `error` field, the kRetry/kQuarantine events, and the
  // lane quarantine counters are the ONLY places the failure is visible.
  ThreadPool pool(2);
  SpeculativeExecutor ex(
      pool, 8,
      [&](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t))) return;
        if (t == 5) throw std::runtime_error("task five is poisoned");
      },
      21);
  FailurePolicy fp;
  fp.max_retries = 2;
  fp.backoff_base_rounds = 1;
  fp.backoff_cap_rounds = 2;
  ex.set_failure_policy(fp);
  telemetry::RuntimeTelemetry tel;
  ex.set_telemetry(&tel);

  std::vector<TaskId> tasks(8);
  std::iota(tasks.begin(), tasks.end(), TaskId{0});
  ex.push_initial(tasks);
  ControllerParams params;
  params.m0 = 4;
  HybridController controller(params);
  const Trace trace = run_adaptive(ex, controller, {});
  ASSERT_TRUE(ex.done());
  ASSERT_EQ(ex.dead_letters().size(), 1u);
  const auto& dl = ex.dead_letters()[0];

  // (1) RoundStats::first_error is rendered into the trace, not swallowed.
  std::size_t rounds_with_error = 0;
  for (const auto& step : trace.steps) {
    if (!step.error.empty()) {
      ++rounds_with_error;
      EXPECT_EQ(step.error, "task five is poisoned");
    }
  }
  EXPECT_EQ(rounds_with_error, 3u);  // initial attempt + max_retries rounds

  // (2) The lane counters reconcile with the executor's view of the faults.
  const auto totals = tel.totals();
  EXPECT_EQ(totals.quarantined, ex.dead_letters().size());
  EXPECT_EQ(totals.retried, ex.totals().retried);
  EXPECT_EQ(totals.committed, 7u);

  // (3) The event stream carries a dead-letter summary per quarantine and a
  // retry event per absorbed transient.
  std::size_t retries = 0;
  std::size_t quarantines = 0;
  for (const auto& ev : tel.drain_events()) {
    if (ev.kind == telemetry::EventKind::kRetry) ++retries;
    if (ev.kind == telemetry::EventKind::kQuarantine) {
      ++quarantines;
      EXPECT_EQ(ev.a, dl.task);
      EXPECT_EQ(ev.b, dl.attempts);
      EXPECT_EQ(ev.note, dl.error);
    }
  }
  EXPECT_EQ(quarantines, 1u);
  EXPECT_EQ(retries, ex.totals().retried);
}

TEST(TelemetrySurfacing, InjectedFaultsEmitFaultFiredEvents) {
  // The injector's fire hook routes every firing into the control event
  // stream, so chaos post-mortems can line injections up with outcomes.
  ThreadPool pool(1);
  SpeculativeExecutor ex(
      pool, 4,
      [](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t))) return;
      },
      7);
  telemetry::RuntimeTelemetry tel;
  ex.set_telemetry(&tel);
  FaultInjector inj(99);
  inj.set_rate(FaultSite::kOperatorThrow, 1.0);
  inj.set_fire_hook([&](FaultSite site, std::uint64_t a, std::uint64_t b) {
    tel.emit({telemetry::EventKind::kFaultFired, 0, ex.round_index(), a, b,
              0.0, 0.0, fault_site_name(site)});
  });
  ex.set_fault_injector(&inj);
  FailurePolicy fp;
  fp.max_retries = 8;
  fp.backoff_base_rounds = 1;
  ex.set_failure_policy(fp);
  std::vector<TaskId> tasks{0, 1, 2, 3};
  ex.push_initial(tasks);
  int rounds = 0;
  // Rate 1.0 fires on every attempt regardless of re-keying; drop it after
  // the first round so the workload drains while firings remain on record.
  while (!ex.done() && rounds++ < 1000) {
    (void)ex.run_round(4);
    inj.set_rate(FaultSite::kOperatorThrow, 0.0);
  }
  ASSERT_TRUE(ex.done());
  ASSERT_GT(inj.total_fired(), 0u);
  std::size_t fault_events = 0;
  for (const auto& ev : tel.drain_events()) {
    if (ev.kind == telemetry::EventKind::kFaultFired) {
      ++fault_events;
      EXPECT_EQ(ev.note, "operator-throw");
    }
  }
  EXPECT_EQ(fault_events, inj.total_fired());
}

}  // namespace
}  // namespace optipar
