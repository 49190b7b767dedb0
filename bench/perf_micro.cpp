// PERF — google-benchmark micro-benchmarks of the hot kernels: the
// permutation sweep (one full r̄-curve sample), single-round conflict
// evaluation, graph generation, controller decision overhead, speculative
// executor round overhead, and Delaunay construction.
#include <benchmark/benchmark.h>

#include "apps/dmr/delaunay.hpp"
#include "bench_context.hpp"
#include "control/hybrid.hpp"
#include "graph/generators.hpp"
#include "model/conflict_ratio.hpp"
#include "model/permutation_sweep.hpp"
#include "rt/spec_executor.hpp"
#include "support/rng.hpp"
#include "support/telemetry/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace optipar;

void BM_PermutationSweep(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(1);
  const auto g = gen::random_with_average_degree(n, 16, rng);
  std::vector<NodeId> perm;
  SweepScratch scratch;
  PrefixSweep sweep;
  for (auto _ : state) {
    rng.permutation_into(n, perm);
    sweep_full_permutation(g, perm, scratch, sweep);
    benchmark::DoNotOptimize(sweep.aborts_at_prefix.back());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PermutationSweep)->Arg(500)->Arg(2000)->Arg(8000);

void BM_RoundOutcome(benchmark::State& state) {
  const auto m = static_cast<std::uint32_t>(state.range(0));
  Rng rng(2);
  const auto g = gen::random_with_average_degree(2000, 16, rng);
  Rng::SampleScratch sample_scratch;
  SweepScratch sweep_scratch;
  std::vector<NodeId> active;
  std::vector<std::uint8_t> outcome;
  for (auto _ : state) {
    rng.sample_without_replacement_into(2000, m, sample_scratch, active);
    round_outcome(g, active, sweep_scratch, outcome);
    benchmark::DoNotOptimize(outcome.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_RoundOutcome)->Arg(16)->Arg(128)->Arg(1024);

void BM_GnmGeneration(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gen::random_with_average_degree(n, 16, rng).num_edges());
  }
}
BENCHMARK(BM_GnmGeneration)->Arg(1000)->Arg(10000);

void BM_UnionOfCliques(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::union_of_cliques(n, 16).num_edges());
  }
}
BENCHMARK(BM_UnionOfCliques)->Arg(1020)->Arg(10200);

void BM_HybridControllerObserve(benchmark::State& state) {
  ControllerParams p;
  HybridController c(p);
  RoundStats stats;
  stats.launched = 100;
  stats.committed = 75;
  stats.aborted = 25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.observe(stats));
  }
}
BENCHMARK(BM_HybridControllerObserve);

void BM_ConflictCurveEstimation(benchmark::State& state) {
  Rng rng(4);
  const auto g = gen::random_with_average_degree(2000, 16, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimate_conflict_curve(g, 10, rng).r_bar(1000));
  }
}
BENCHMARK(BM_ConflictCurveEstimation);

void BM_ExecutorRound(benchmark::State& state) {
  const auto m = static_cast<std::uint32_t>(state.range(0));
  ThreadPool pool(2);
  for (auto _ : state) {
    state.PauseTiming();
    SpeculativeExecutor ex(
        pool, 4096,
        [](TaskId t, IterationContext& ctx) {
          if (!ctx.acquire(static_cast<std::uint32_t>(t))) return;
        },
        5);
    std::vector<TaskId> tasks(4096);
    for (TaskId t = 0; t < 4096; ++t) tasks[t] = t;
    ex.push_initial(tasks);
    state.ResumeTiming();
    benchmark::DoNotOptimize(ex.run_round(m).committed);
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_ExecutorRound)->Arg(16)->Arg(256)->Arg(2048);

// Steady-state round overhead: the executor, its worklist, and its
// iteration contexts are reused across rounds — this is the dispatch path
// an adaptive run loop actually sits in (thousands of rounds per run).
// Every committed task re-pushes itself, so the worklist size is invariant
// and each timed iteration performs one full round of m conflict-free
// tasks.
void BM_SpecExecutorRound(benchmark::State& state) {
  const auto m = static_cast<std::uint32_t>(state.range(0));
  ThreadPool pool(2);
  SpeculativeExecutor ex(
      pool, 4096,
      [](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t))) return;
        ctx.push(t);  // keep the worklist at steady state
      },
      5);
  std::vector<TaskId> tasks(m);
  for (std::uint32_t t = 0; t < m; ++t) tasks[t] = t;
  ex.push_initial(tasks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.run_round(m).committed);
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_SpecExecutorRound)->Arg(16)->Arg(256)->Arg(2048);

// The steady-state round on the one-lane path at mis-er's scale: a 10^6-item
// lock table, and each task locks its own item plus 8 hashed ones (a closed
// neighbourhood at average degree 8), so releasing the committed tasks'
// locks is a pass of random stores over a 4 MB table. Tasks whose items
// overlap an earlier committed task's abort and are requeued; committed
// ones re-push themselves, so the worklist stays at m.
void BM_SpecExecutorRoundOneLane(benchmark::State& state) {
  constexpr std::uint32_t kItems = 1000000;
  const auto m = static_cast<std::uint32_t>(state.range(0));
  ThreadPool pool(1);
  SpeculativeExecutor ex(
      pool, kItems,
      [](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t))) return;
        SplitMix64 hash(t);
        for (int i = 0; i < 8; ++i) {
          if (!ctx.acquire(static_cast<std::uint32_t>(hash.next() % kItems))) {
            return;
          }
        }
        ctx.push(t);
      },
      5);
  std::vector<TaskId> tasks(m);
  for (std::uint32_t t = 0; t < m; ++t) tasks[t] = t;
  ex.push_initial(tasks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.run_round(m).committed);
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_SpecExecutorRoundOneLane)->Arg(32768);

// The same steady-state round on the abort path: task t locks item t/2, so
// of each pair the task drawn second conflicts and exactly half of every
// round aborts. Aborted tasks are requeued and committed ones re-push
// themselves, so the worklist stays at m. CI holds its time to a multiple
// of BM_SpecExecutorRound's (scripts/check_bench_sentinel.py --ratio-to).
void BM_SpecExecutorRoundConflicted(benchmark::State& state) {
  const auto m = static_cast<std::uint32_t>(state.range(0));
  ThreadPool pool(2);
  SpeculativeExecutor ex(
      pool, 4096,
      [](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t / 2))) return;
        ctx.push(t);
      },
      5);
  std::vector<TaskId> tasks(m);
  for (std::uint32_t t = 0; t < m; ++t) tasks[t] = t;
  ex.push_initial(tasks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.run_round(m).committed);
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_SpecExecutorRoundConflicted)->Arg(256)->Arg(2048);

// The same steady-state round with a RuntimeTelemetry sink attached — the
// enabled-path cost of the per-lane counters, phase clocks, and work
// histogram. scripts/run_bench.sh compares this bench's median against
// BM_SpecExecutorRound's and records the ratio as `telemetry_overhead` in
// BENCH_rt.json (budget: TELEMETRY_OVERHEAD_MAX, DESIGN.md §10).
void BM_SpecExecutorRoundTelemetry(benchmark::State& state) {
  const auto m = static_cast<std::uint32_t>(state.range(0));
  ThreadPool pool(2);
  SpeculativeExecutor ex(
      pool, 4096,
      [](TaskId t, IterationContext& ctx) {
        if (!ctx.acquire(static_cast<std::uint32_t>(t))) return;
        ctx.push(t);  // keep the worklist at steady state
      },
      5);
  telemetry::RuntimeTelemetry tel;
  ex.set_telemetry(&tel);
  std::vector<TaskId> tasks(m);
  for (std::uint32_t t = 0; t < m; ++t) tasks[t] = t;
  ex.push_initial(tasks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.run_round(m).committed);
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_SpecExecutorRoundTelemetry)->Arg(16)->Arg(256)->Arg(2048);

void BM_DelaunayBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  std::vector<dmr::Point2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform() * 100, rng.uniform() * 100});
  }
  for (auto _ : state) {
    dmr::Mesh mesh;
    benchmark::DoNotOptimize(dmr::build_delaunay(mesh, pts, 2.0).size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DelaunayBuild)->Arg(100)->Arg(500);

}  // namespace

OPTIPAR_BENCHMARK_MAIN()
