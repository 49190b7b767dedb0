#include "apps/sssp/sssp.hpp"

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

AppSpec make_spec(const WeightedGraph& g, DistanceTable& dist) {
  AppSpec spec;
  spec.items = g.num_nodes();
  spec.initial = all_tasks(g.num_nodes());
  spec.op = [&g, &dist](TaskId task, IterationContext& ctx) {
    const auto v = static_cast<NodeId>(task);
    if (!ctx.acquire(v)) return;
    const double dv = dist.get(v);
    if (dv == kUnreachable) return;  // no useful relaxation yet: no-op
    // Lock every arc target before the first relaxation, so an aborted
    // task has written nothing.
    for (const Arc& a : g.arcs(v)) {
      if (!ctx.acquire(a.to)) return;
    }
    for (const Arc& a : g.arcs(v)) {
      const double candidate = dv + a.weight;
      if (candidate < dist.get(a.to)) {
        dist.set(a.to, candidate);
        ctx.push(a.to);  // the target's own arcs need re-relaxing
      }
    }
  };
  spec.footprint = [&g](TaskId task, std::vector<std::uint32_t>& fp) {
    const auto v = static_cast<NodeId>(task);
    fp.push_back(v);
    for (const Arc& a : g.arcs(v)) fp.push_back(a.to);
  };
  return spec;
}

std::function<std::uint64_t(TaskId)> distance_priority(
    const DistanceTable& dist) {
  // Quantized tentative distance at (re)insertion time.
  return [&dist](TaskId t) {
    const double d = dist.get(static_cast<NodeId>(t));
    if (d == kUnreachable) return UINT64_MAX;
    return static_cast<std::uint64_t>(d * 1024.0);
  };
}

}  // namespace optipar::sssp
