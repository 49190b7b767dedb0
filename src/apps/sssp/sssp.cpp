#include "apps/sssp/sssp.hpp"

#include <memory>
#include <queue>
#include <stdexcept>

namespace optipar::sssp {

std::vector<double> dijkstra(const WeightedGraph& g, NodeId source) {
  if (source >= g.num_nodes()) {
    throw std::invalid_argument("dijkstra: source out of range");
  }
  std::vector<double> dist(g.num_nodes(), kUnreachable);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;  // stale entry
    for (const Arc& a : g.arcs(v)) {
      if (a.weight < 0.0) {
        throw std::invalid_argument("dijkstra: negative weight");
      }
      const double candidate = d + a.weight;
      if (candidate < dist[a.to]) {
        dist[a.to] = candidate;
        heap.push({candidate, a.to});
      }
    }
  }
  return dist;
}

DistanceTable::DistanceTable(NodeId n, NodeId source)
    : dist_(n, kUnreachable) {
  dist_.at(source) = 0.0;
}

TaskOperator make_sssp_operator(const WeightedGraph& g, DistanceTable& dist) {
  return [&g, &dist](TaskId task, IterationContext& ctx) {
    const auto v = static_cast<NodeId>(task);
    if (!ctx.acquire(v)) return;
    const double dv = dist.get(v);
    if (dv == kUnreachable) return;  // no useful relaxation yet: no-op
    for (const Arc& a : g.arcs(v)) {
      if (!ctx.acquire(a.to)) return;
      const double candidate = dv + a.weight;
      const double old = dist.get(a.to);
      if (candidate < old) {
        dist.set(a.to, candidate);
        ctx.on_abort([&dist, w = a.to, old] { dist.set(w, old); });
        ctx.push(a.to);  // w's own arcs need re-relaxing
      }
    }
  };
}

namespace {

SsspResult run_sssp(const WeightedGraph& g, NodeId source,
                    Controller& controller, ThreadPool& pool,
                    std::uint64_t seed, std::uint32_t max_rounds,
                    WorklistPolicy policy) {
  auto dist = std::make_shared<DistanceTable>(g.num_nodes(), source);
  SpeculativeExecutor executor(pool, g.num_nodes(),
                               make_sssp_operator(g, *dist), seed,
                               RoundOptions{.worklist = policy});
  if (policy == WorklistPolicy::kPriority) {
    // Priority = quantized tentative distance at (re)insertion time. The
    // executor evaluates this outside the parallel section, so the
    // unlocked read is safe.
    executor.set_priority_function([dist](TaskId t) {
      const double d = dist->get(static_cast<NodeId>(t));
      if (d == kUnreachable) return UINT64_MAX;
      return static_cast<std::uint64_t>(d * 1024.0);
    });
  }
  const TaskId initial[] = {source};
  executor.push_initial(initial);

  AdaptiveRunConfig config;
  config.max_rounds = max_rounds;
  SsspResult result;
  result.trace = run_adaptive(executor, controller, config);
  result.dist = dist->all();
  return result;
}

}  // namespace

SsspResult sssp_adaptive(const WeightedGraph& g, NodeId source,
                         Controller& controller, ThreadPool& pool,
                         std::uint64_t seed, std::uint32_t max_rounds) {
  return run_sssp(g, source, controller, pool, seed, max_rounds,
                  WorklistPolicy::kRandom);
}

SsspResult sssp_priority_adaptive(const WeightedGraph& g, NodeId source,
                                  Controller& controller, ThreadPool& pool,
                                  std::uint64_t seed,
                                  std::uint32_t max_rounds) {
  return run_sssp(g, source, controller, pool, seed, max_rounds,
                  WorklistPolicy::kPriority);
}

}  // namespace optipar::sssp
