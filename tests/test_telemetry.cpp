// Telemetry-layer tests (DESIGN.md §10): histogram bucketing, the
// drop-oldest event ring, scoped timers, golden metric renderings, the
// master reconciliation invariant — with telemetry attached, the per-lane
// counter sums equal the executor's own RoundStats totals exactly, at every
// pool size — and the conflict profiler's rollups and attribution (§15).
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app_spec.hpp"
#include "control/baselines.hpp"
#include "graph/generators.hpp"
#include "rt/spec_executor.hpp"
#include "sim/trace.hpp"
#include "support/rng.hpp"
#include "support/telemetry/conflict_profiler.hpp"
#include "support/telemetry/metrics_registry.hpp"
#include "support/telemetry/telemetry.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace optipar {
namespace {

using telemetry::ConflictProfiler;
using telemetry::EventKind;
using telemetry::EventRing;
using telemetry::RuntimeTelemetry;
using telemetry::TraceEvent;
using telemetry::WorkHistogram;

// ---------------------------------------------------------------------------
// WorkHistogram: power-of-two buckets 1, 2, 4, ..., 128, +inf.
// ---------------------------------------------------------------------------

TEST(WorkHistogram, BucketBoundaries) {
  // Bucket b covers (upper_bound(b-1), upper_bound(b)].
  EXPECT_EQ(WorkHistogram::bucket_of(0), 0u);
  EXPECT_EQ(WorkHistogram::bucket_of(1), 0u);
  EXPECT_EQ(WorkHistogram::bucket_of(2), 1u);
  EXPECT_EQ(WorkHistogram::bucket_of(3), 2u);
  EXPECT_EQ(WorkHistogram::bucket_of(4), 2u);
  EXPECT_EQ(WorkHistogram::bucket_of(5), 3u);
  EXPECT_EQ(WorkHistogram::bucket_of(8), 3u);
  EXPECT_EQ(WorkHistogram::bucket_of(128), 7u);
  EXPECT_EQ(WorkHistogram::bucket_of(129), 8u);
  EXPECT_EQ(WorkHistogram::bucket_of(1u << 20), 8u);  // clamps to +inf

  EXPECT_EQ(WorkHistogram::upper_bound(0), 1u);
  EXPECT_EQ(WorkHistogram::upper_bound(7), 128u);
  EXPECT_EQ(WorkHistogram::upper_bound(8), ~std::uint64_t{0});

  // Every value lands in exactly the bucket whose bound brackets it.
  for (std::uint64_t v = 1; v <= 200; ++v) {
    const std::size_t b = WorkHistogram::bucket_of(v);
    EXPECT_LE(v, WorkHistogram::upper_bound(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, WorkHistogram::upper_bound(b - 1)) << v;
    }
  }
}

TEST(WorkHistogram, RecordTotalAndMerge) {
  WorkHistogram h;
  for (std::uint64_t v : {1, 1, 2, 3, 9, 200}) h.record(v);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.counts[0], 2u);  // the two 1s
  EXPECT_EQ(h.counts[1], 1u);  // the 2
  EXPECT_EQ(h.counts[2], 1u);  // the 3
  EXPECT_EQ(h.counts[4], 1u);  // the 9 (bucket (8,16])
  EXPECT_EQ(h.counts[8], 1u);  // the 200 (+inf)

  WorkHistogram other;
  other.record(1);
  h.merge(other);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.counts[0], 3u);
}

// ---------------------------------------------------------------------------
// EventRing: bounded, drop-oldest, drains in order.
// ---------------------------------------------------------------------------

TraceEvent numbered_event(std::uint64_t i) {
  TraceEvent ev;
  ev.kind = EventKind::kRetry;
  ev.round = i;
  ev.a = i;
  return ev;
}

TEST(EventRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventRing(1).capacity(), 8u);   // minimum
  EXPECT_EQ(EventRing(9).capacity(), 16u);
  EXPECT_EQ(EventRing(16).capacity(), 16u);
}

TEST(EventRing, OverflowDropsOldestAndCounts) {
  EventRing ring(8);
  for (std::uint64_t i = 0; i < 13; ++i) ring.push(numbered_event(i));
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.dropped(), 5u);  // events 0..4 were evicted

  std::vector<TraceEvent> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].a, 5 + i);  // oldest surviving event first
  }
  EXPECT_EQ(ring.size(), 0u);       // drain empties the ring
  EXPECT_EQ(ring.dropped(), 5u);    // ...but keeps the loss accounting

  ring.push(numbered_event(99));    // reusable after a drain
  out.clear();
  ring.drain(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a, 99u);
}

// ---------------------------------------------------------------------------
// ScopedTimer / TimerAccumulator.
// ---------------------------------------------------------------------------

TEST(ScopedTimer, AccumulatesSpans) {
  TimerAccumulator acc;
  {
    ScopedTimer t(&acc);
  }
  {
    ScopedTimer t(&acc);
    t.stop();
    t.stop();  // idempotent: the span is counted once
  }
  EXPECT_EQ(acc.count(), 2u);
  EXPECT_GE(acc.total_seconds(), 0.0);

  acc.reset();
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.total_ns(), 0u);
}

TEST(ScopedTimer, NullAccumulatorIsFree) {
  // The disabled contract: nullptr means no clock reads, no effects, and
  // stop() is safe.
  ScopedTimer t(nullptr);
  t.stop();
}

TEST(TimerSet, StableNamedAccumulators) {
  telemetry::TimerSet timers;
  TimerAccumulator& a = timers.at("alpha");
  TimerAccumulator& b = timers.at("beta");
  EXPECT_EQ(&a, &timers.at("alpha"));  // get-or-create, stable address
  a.add(100, 2);
  b.add(50);
  const auto snap = timers.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "alpha");  // name-sorted
  EXPECT_EQ(snap[0].total_ns, 100u);
  EXPECT_EQ(snap[0].count, 2u);
  EXPECT_EQ(snap[1].name, "beta");
}

// ---------------------------------------------------------------------------
// Golden renderings: the exact bytes scrapers and check_metrics.py consume.
// ---------------------------------------------------------------------------

MetricsRegistry golden_registry() {
  using Type = MetricsRegistry::Type;
  MetricsRegistry reg;
  reg.add("optipar_demo_total", Type::kCounter, "Demo counter",
          {{"lane", "0"}}, 3);
  reg.add("optipar_demo_total", Type::kCounter, "Demo counter",
          {{"lane", "1"}}, 4.5);
  reg.add("optipar_up", Type::kGauge, "Demo gauge", {}, 1);
  reg.add_histogram("optipar_work", "Work histogram", {},
                    {{"1", 2}, {"2", 5}, {"+Inf", 6}}, 13.5);
  return reg;
}

TEST(MetricsRegistry, GoldenPrometheusRendering) {
  std::ostringstream os;
  golden_registry().render_prometheus(os);
  EXPECT_EQ(os.str(),
            "# HELP optipar_demo_total Demo counter\n"
            "# TYPE optipar_demo_total counter\n"
            "optipar_demo_total{lane=\"0\"} 3\n"
            "optipar_demo_total{lane=\"1\"} 4.5\n"
            "# HELP optipar_up Demo gauge\n"
            "# TYPE optipar_up gauge\n"
            "optipar_up 1\n"
            "# HELP optipar_work Work histogram\n"
            "# TYPE optipar_work histogram\n"
            "optipar_work_bucket{le=\"1\"} 2\n"
            "optipar_work_bucket{le=\"2\"} 5\n"
            "optipar_work_bucket{le=\"+Inf\"} 6\n"
            "optipar_work_sum 13.5\n"
            "optipar_work_count 6\n");
}

TEST(MetricsRegistry, GoldenJsonRendering) {
  std::ostringstream os;
  golden_registry().render_json(os);
  EXPECT_EQ(
      os.str(),
      "{\"schema\":\"optipar.metrics.v2\",\"metrics\":["
      "{\"name\":\"optipar_demo_total\",\"type\":\"counter\","
      "\"help\":\"Demo counter\",\"samples\":["
      "{\"labels\":{\"lane\":\"0\"},\"value\":3},"
      "{\"labels\":{\"lane\":\"1\"},\"value\":4.5}]},"
      "{\"name\":\"optipar_up\",\"type\":\"gauge\",\"help\":\"Demo gauge\","
      "\"samples\":[{\"labels\":{},\"value\":1}]},"
      "{\"name\":\"optipar_work\",\"type\":\"histogram\","
      "\"help\":\"Work histogram\",\"samples\":[{\"labels\":{},"
      "\"buckets\":[{\"le\":\"1\",\"count\":2},{\"le\":\"2\",\"count\":5},"
      "{\"le\":\"+Inf\",\"count\":6}],\"sum\":13.5,\"count\":6}]}"
      "]}\n");
}

TEST(MetricsRegistry, TypeMismatchThrows) {
  using Type = MetricsRegistry::Type;
  MetricsRegistry reg;
  reg.add("optipar_x", Type::kCounter, "x", {}, 1);
  EXPECT_THROW(reg.add("optipar_x", Type::kGauge, "x", {}, 2),
               std::logic_error);
}

TEST(TraceJsonl, GoldenEventAndStepLines) {
  TraceEvent ev;
  ev.kind = EventKind::kQuarantine;
  ev.lane = 2;
  ev.round = 7;
  ev.a = 42;
  ev.b = 3;
  ev.x = 0.5;
  ev.y = -0.25;
  ev.note = "boom \"x\"";
  const std::vector<TraceEvent> events{ev};
  std::ostringstream os;
  telemetry::write_events_jsonl(os, events);
  EXPECT_EQ(os.str(),
            "{\"type\":\"event\",\"kind\":\"quarantine\",\"round\":7,"
            "\"lane\":2,\"a\":42,\"b\":3,\"x\":0.5,\"y\":-0.25,"
            "\"note\":\"boom \\\"x\\\"\"}\n");

  StepRecord rec;
  rec.step = 3;
  rec.m = 8;
  rec.launched = 8;
  rec.committed = 6;
  rec.aborted = 2;
  rec.pending_after = 40;
  rec.error = "bad op";
  std::ostringstream os2;
  write_step_jsonl(os2, rec);
  EXPECT_EQ(os2.str(),
            "{\"type\":\"round\",\"step\":3,\"m\":8,\"launched\":8,"
            "\"committed\":6,\"aborted\":2,\"retried\":0,\"quarantined\":0,"
            "\"injected\":0,\"pending_after\":40,\"r\":0.25,"
            "\"degraded\":false,\"error\":\"bad op\"}\n");
}

// ---------------------------------------------------------------------------
// Reconciliation: lane counter sums == executor RoundStats totals, at every
// pool size, on both conflict-free and conflict-heavy workloads.
// ---------------------------------------------------------------------------

struct RunResult {
  ExecutorTotals executor;
  telemetry::TelemetryTotals lanes;
};

/// Drive `tasks` tasks to completion at allocation m with telemetry
/// attached. stride=1 gives a conflict-free workload (task t owns item t);
/// stride=0 makes every task contend on item 0.
RunResult run_with_telemetry(std::size_t threads, std::uint32_t tasks_n,
                             std::uint32_t m, std::uint32_t stride) {
  ThreadPool pool(threads);
  SpeculativeExecutor ex(
      pool, tasks_n,
      [stride](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t * stride))) return;
      },
      /*seed=*/12345);
  RuntimeTelemetry tel;
  ex.set_telemetry(&tel);
  std::vector<TaskId> tasks(tasks_n);
  std::iota(tasks.begin(), tasks.end(), TaskId{0});
  ex.push_initial(tasks);
  while (!ex.done()) (void)ex.run_round(m);
  return {ex.totals(), tel.totals()};
}

TEST(TelemetryReconciliation, LaneSumsMatchTotalsAcrossPoolSizes) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    for (const std::uint32_t stride : {1u, 0u}) {
      const RunResult r = run_with_telemetry(threads, 96, 16, stride);
      EXPECT_EQ(r.lanes.executed, r.executor.launched)
          << "threads=" << threads << " stride=" << stride;
      EXPECT_EQ(r.lanes.committed, r.executor.committed)
          << "threads=" << threads << " stride=" << stride;
      EXPECT_EQ(r.lanes.aborted, r.executor.aborted)
          << "threads=" << threads << " stride=" << stride;
      EXPECT_EQ(r.lanes.retried, r.executor.retried);
      EXPECT_EQ(r.lanes.quarantined, r.executor.quarantined);
      // Every executed task recorded exactly one work sample.
      EXPECT_EQ(r.lanes.work.total(), r.executor.launched);
      // All 96 tasks eventually committed regardless of contention.
      EXPECT_EQ(r.executor.committed, 96u);
    }
  }
}

TEST(TelemetryReconciliation, ConflictFreeRunIsDeterministic) {
  // A conflict-free workload retires everything with zero aborts and zero
  // lock failures, independent of the pool size.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const RunResult r = run_with_telemetry(threads, 64, 8, 1);
    EXPECT_EQ(r.lanes.executed, 64u);
    EXPECT_EQ(r.lanes.committed, 64u);
    EXPECT_EQ(r.lanes.aborted, 0u);
    EXPECT_EQ(r.lanes.lock_failures, 0u);
    EXPECT_EQ(r.lanes.dropped_events, 0u);
  }
}

TEST(TelemetryReconciliation, ContendedRunCountsLockFailures) {
  const RunResult r = run_with_telemetry(4, 64, 16, 0);
  // Every abort on the all-contend-on-item-0 workload is a failed acquire.
  EXPECT_GT(r.executor.aborted, 0u);
  EXPECT_GE(r.lanes.lock_failures, r.executor.aborted);
}

TEST(RuntimeTelemetry, RoundEventsAndDetach) {
  ThreadPool pool(2);
  SpeculativeExecutor ex(
      pool, 16,
      [](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t))) return;
      },
      1);
  RuntimeTelemetry tel;
  ex.set_telemetry(&tel);
  ASSERT_EQ(ex.telemetry(), &tel);
  std::vector<TaskId> tasks(16);
  std::iota(tasks.begin(), tasks.end(), TaskId{0});
  ex.push_initial(tasks);
  (void)ex.run_round(8);

  const auto events = tel.drain_events();
  ASSERT_EQ(events.size(), 2u);  // round_start + round_end, same round
  EXPECT_EQ(events[0].kind, EventKind::kRoundStart);
  EXPECT_EQ(events[0].a, 8u);   // requested m
  EXPECT_EQ(events[0].b, 8u);   // taken
  EXPECT_EQ(events[1].kind, EventKind::kRoundEnd);
  EXPECT_EQ(events[1].a, 8u);   // launched
  EXPECT_EQ(events[1].b, 8u);   // committed

  // Detach: further rounds must record nothing.
  ex.set_telemetry(nullptr);
  EXPECT_EQ(ex.telemetry(), nullptr);
  (void)ex.run_round(8);
  EXPECT_TRUE(tel.drain_events().empty());
  EXPECT_EQ(tel.totals().executed, 8u);  // only the attached round counted
}

TEST(RuntimeTelemetry, ExportReconcilesWithTotals) {
  // The rendered export's lane sums must equal the totals() view — the
  // property scripts/check_metrics.py re-verifies on CLI output.
  const RunResult r = run_with_telemetry(2, 32, 8, 0);
  EXPECT_EQ(r.lanes.executed, r.lanes.committed + r.lanes.aborted);
}

// ---------------------------------------------------------------------------
// ConflictProfiler: top-K ranking, top-share, degree buckets, and exact
// attribution (one counted conflict per conflict abort).
// ---------------------------------------------------------------------------

/// Record hits[i] conflicts on item i.
void record_conflicts(ConflictProfiler& prof,
                      const std::vector<std::uint32_t>& hits) {
  for (std::uint32_t item = 0; item < hits.size(); ++item) {
    for (std::uint32_t h = 0; h < hits[item]; ++h) prof.on_conflict(item);
  }
}

TEST(ConflictProfiler, TopKRanksByCountThenItemId) {
  ConflictProfiler prof(6);
  record_conflicts(prof, {2, 5, 0, 5, 1, 2});
  prof.on_conflict(6);  // out of range: ignored
  EXPECT_EQ(prof.total_conflicts(), 15u);

  const auto top = prof.top_k(4);
  ASSERT_EQ(top.size(), 4u);
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> want{
      {1, 5}, {3, 5}, {0, 2}, {5, 2}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(top[i].item, want[i].first) << "rank " << i;
    EXPECT_EQ(top[i].conflicts, want[i].second) << "rank " << i;
  }
  // Items without a conflict are never ranked.
  EXPECT_EQ(prof.top_k(16).size(), 5u);
}

TEST(ConflictProfiler, TopShareIsZeroWhenNothingConflicted) {
  ConflictProfiler prof(4);
  EXPECT_EQ(prof.total_conflicts(), 0u);
  EXPECT_TRUE(prof.top_k(2).empty());
  EXPECT_EQ(prof.top_share(2), 0.0);

  record_conflicts(prof, {6, 3, 1, 0});
  EXPECT_DOUBLE_EQ(prof.top_share(1), 0.6);
  EXPECT_DOUBLE_EQ(prof.top_share(2), 0.9);
  EXPECT_DOUBLE_EQ(prof.top_share(16), 1.0);
}

TEST(ConflictProfiler, DegreeBucketsArePowersOfTwo) {
  // Item 7 has no degree entry, so it lands in bucket [0, 0].
  ConflictProfiler prof(8);
  prof.set_degrees({0, 1, 2, 3, 4, 7, 9});
  record_conflicts(prof, {1, 2, 3, 4, 5, 6, 7, 8});

  struct Want {
    std::uint64_t lo, hi, items, conflicts;
  };
  const std::vector<Want> want{
      {0, 0, 2, 9}, {1, 1, 1, 2}, {2, 3, 2, 7}, {4, 7, 2, 11}, {8, 15, 1, 7}};
  const auto buckets = prof.degree_buckets();  // empty buckets omitted
  ASSERT_EQ(buckets.size(), want.size());
  for (std::size_t b = 0; b < want.size(); ++b) {
    EXPECT_EQ(buckets[b].degree_lo, want[b].lo) << "bucket " << b;
    EXPECT_EQ(buckets[b].degree_hi, want[b].hi) << "bucket " << b;
    EXPECT_EQ(buckets[b].items, want[b].items) << "bucket " << b;
    EXPECT_EQ(buckets[b].conflicts, want[b].conflicts) << "bucket " << b;
  }
  const auto top = prof.top_k(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].item, 7u);
  EXPECT_EQ(top[0].degree, 0u);
  EXPECT_EQ(top[1].item, 6u);
  EXPECT_EQ(top[1].degree, 9u);
}

TEST(ConflictProfiler, AttributesEveryLockOnlyAbortExactlyOnce) {
  // A lock_only_spec task stops at its first failed acquire and aborts for
  // no other reason, so the profiler, the lane counters and the executor
  // must all count the same conflicts, on one lane and on four.
  Rng rng(7);
  const CsrGraph g = gen::rmat(1000, 4000, 0.55, 0.15, 0.15, rng);
  const AppSpec spec = lock_only_spec(g);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(lanes);
    ThreadPool pool(lanes);
    const auto ex = build_executor(pool, spec, /*seed=*/21);
    ex->set_pipeline({.max_lanes = lanes});
    RuntimeTelemetry tel;
    ConflictProfiler prof(g.num_nodes());
    tel.set_profiler(&prof);
    ex->set_telemetry(&tel);
    FixedController controller(64);
    (void)drain(*ex, spec, controller);

    ASSERT_TRUE(ex->done());
    EXPECT_EQ(ex->totals().committed, g.num_nodes());
    EXPECT_GT(ex->totals().aborted, 0u);
    EXPECT_EQ(tel.totals().lock_failures, ex->totals().aborted);
    EXPECT_EQ(prof.total_conflicts(), ex->totals().aborted);
    EXPECT_EQ(tel.lane_count(), lanes);
  }
}

}  // namespace
}  // namespace optipar
