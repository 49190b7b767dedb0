#include "apps/boruvka/boruvka.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/union_find.hpp"

namespace optipar::boruvka {
namespace {

/// The endpoint of edge (v, u) that a contraction removes: the one with
/// fewer adjacency entries, v on a tie.
NodeId dying_end(const ContractionGraph& graph, NodeId v, NodeId u) {
  return graph.adjacency(v).size() <= graph.adjacency(u).size() ? v : u;
}

}  // namespace

double kruskal_mst_weight(NodeId n, std::vector<WeightedEdge> edges) {
  std::sort(edges.begin(), edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              if (a.w != b.w) return a.w < b.w;
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });
  UnionFind uf(n);
  double total = 0.0;
  for (const auto& e : edges) {
    if (uf.unite(e.u, e.v)) total += e.w;
  }
  return total;
}

ContractionGraph::ContractionGraph(NodeId n,
                                   const std::vector<WeightedEdge>& edges)
    : adj_(n), alive_(n, 1), chosen_w_(n, 0.0), chosen_flag_(n, 0) {
  for (const auto& e : edges) {
    if (e.u >= n || e.v >= n || e.u == e.v) {
      throw std::invalid_argument("ContractionGraph: bad edge");
    }
    // Parallel edges collapse to the lightest immediately.
    auto keep_min = [](std::unordered_map<NodeId, double>& map, NodeId key,
                       double w) {
      const auto [it, fresh] = map.try_emplace(key, w);
      if (!fresh && w < it->second) it->second = w;
    };
    keep_min(adj_[e.u], e.v, e.w);
    keep_min(adj_[e.v], e.u, e.w);
  }
}

std::optional<WeightedEdge> ContractionGraph::lightest_edge(NodeId v) const {
  const auto& nbrs = adj_[v];
  if (nbrs.empty()) return std::nullopt;
  WeightedEdge best{v, 0, 0.0};
  bool first = true;
  for (const auto& [u, w] : nbrs) {
    if (first || w < best.w || (w == best.w && u < best.v)) {
      best.v = u;
      best.w = w;
      first = false;
    }
  }
  return best;
}

double ContractionGraph::chosen_weight() const {
  double total = 0.0;
  for (std::size_t v = 0; v < chosen_w_.size(); ++v) {
    if (chosen_flag_[v]) total += chosen_w_[v];
  }
  return total;
}

std::uint32_t ContractionGraph::chosen_count() const {
  std::uint32_t count = 0;
  for (const auto f : chosen_flag_) count += f;
  return count;
}

TaskOperator make_boruvka_operator(ContractionGraph& graph) {
  return [&graph](TaskId task, IterationContext& ctx) {
    const auto v = static_cast<NodeId>(task);
    if (!ctx.acquire(v)) return;
    if (!graph.is_alive(v)) return;  // contracted by someone else: no-op

    const auto best = graph.lightest_edge(v);
    if (!best.has_value()) {
      // Isolated supernode: its component's MST is complete.
      graph.set_alive(v, false);
      return;
    }
    const NodeId u = best->v;
    const double w = best->w;
    if (!ctx.acquire(u)) return;

    // The endpoint with fewer adjacency entries dies into the other (v on
    // a tie), so a big supernode's map is not moved every time it runs.
    const NodeId from = dying_end(graph, v, u);
    const NodeId into = from == v ? u : v;

    // Every neighbor of `from` has its adjacency rewritten, so each is
    // acquired before the first write.
    const auto& nbrs = graph.adjacency(from);
    for (const auto& [x, wx] : nbrs) {
      if (!ctx.acquire(x)) return;
    }

    // The loop writes only neighbors' maps (no self-loops: x != from), so
    // iterating from's own map while merging is safe.
    for (const auto& [x, wx] : nbrs) {
      auto& adj_x = graph.mutable_adjacency(x);
      adj_x.erase(from);
      if (x == into) continue;
      // x gains (or keeps the lighter of) an edge to into, mirrored there.
      const auto old_x_into = adj_x.find(into);
      if (old_x_into == adj_x.end() || wx < old_x_into->second) {
        adj_x[into] = wx;
        graph.mutable_adjacency(into)[x] = wx;
      }
    }
    // from is gone: release its map's storage (clear() would keep the
    // bucket array).
    std::unordered_map<NodeId, double>().swap(graph.mutable_adjacency(from));

    graph.record_choice(from, w, true);
    graph.set_alive(from, false);

    // Every live node has exactly one task pending or running. When u dies
    // its own pending task later runs as a dead no-op; when v survives,
    // this task's follow-up is v's one task.
    if (into == v) ctx.push(v);
  };
}

AppSpec make_spec(ContractionGraph& graph) {
  AppSpec spec;
  spec.items = graph.num_nodes();
  spec.initial = all_tasks(graph.num_nodes());
  spec.op = make_boruvka_operator(graph);
  spec.footprint = [&graph](TaskId t, std::vector<std::uint32_t>& fp) {
    const auto v = static_cast<NodeId>(t);
    const auto best = graph.lightest_edge(v);  // none once v is dead
    if (!best.has_value()) {
      fp.push_back(v);
      return;
    }
    // {from} ∪ adjacency(from) holds both v and u: they are adjacent.
    const NodeId from = dying_end(graph, v, best->v);
    fp.push_back(from);
    for (const auto& [x, w] : graph.adjacency(from)) fp.push_back(x);
  };
  spec.before_round = [](SpeculativeExecutor& ex) {
    ex.invalidate_schedule();
  };
  return spec;
}

}  // namespace optipar::boruvka
