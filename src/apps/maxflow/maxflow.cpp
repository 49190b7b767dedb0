#include "apps/maxflow/maxflow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>

namespace optipar::maxflow {

void FlowNetwork::add_arc(NodeId u, NodeId v, double capacity) {
  if (u >= num_nodes() || v >= num_nodes() || u == v) {
    throw std::invalid_argument("FlowNetwork::add_arc: bad endpoints");
  }
  if (capacity < 0.0) {
    throw std::invalid_argument("FlowNetwork::add_arc: negative capacity");
  }
  const auto ui = static_cast<std::uint32_t>(arcs_[u].size());
  const auto vi = static_cast<std::uint32_t>(arcs_[v].size());
  arcs_[u].push_back({v, capacity, 0.0, v, vi});
  arcs_[v].push_back({u, 0.0, 0.0, u, ui});
}

void FlowNetwork::push(NodeId u, std::uint32_t index, double amount) {
  FlowArc& fwd = arcs_[u][index];
  FlowArc& rev = arcs_[fwd.rev_node][fwd.rev_index];
  fwd.flow += amount;
  rev.flow -= amount;
}

bool FlowNetwork::is_feasible(NodeId s, NodeId t) const {
  for (NodeId v = 0; v < num_nodes(); ++v) {
    double net_out = 0.0;
    for (const FlowArc& a : arcs_[v]) {
      if (a.flow > a.capacity + 1e-9) return false;
      net_out += a.flow;
    }
    if (v != s && v != t && std::abs(net_out) > 1e-9) return false;
  }
  return true;
}

double FlowNetwork::flow_value(NodeId s) const {
  double out = 0.0;
  for (const FlowArc& a : arcs_[s]) out += a.flow;
  return out;
}

void FlowNetwork::reset_flow() {
  for (auto& list : arcs_) {
    for (auto& a : list) a.flow = 0.0;
  }
}

double edmonds_karp(FlowNetwork network, NodeId s, NodeId t) {
  if (s == t) throw std::invalid_argument("edmonds_karp: s == t");
  network.reset_flow();
  double total = 0.0;
  for (;;) {
    // BFS for the shortest residual path.
    std::vector<std::pair<NodeId, std::uint32_t>> parent(
        network.num_nodes(), {UINT32_MAX, 0});
    std::queue<NodeId> queue;
    queue.push(s);
    parent[s] = {s, 0};
    while (!queue.empty() && parent[t].first == UINT32_MAX) {
      const NodeId v = queue.front();
      queue.pop();
      const auto& arcs = network.arcs(v);
      for (std::uint32_t i = 0; i < arcs.size(); ++i) {
        const auto& a = arcs[i];
        if (a.residual() > 0.0 && parent[a.to].first == UINT32_MAX) {
          parent[a.to] = {v, i};
          queue.push(a.to);
        }
      }
    }
    if (parent[t].first == UINT32_MAX) break;  // no augmenting path

    double bottleneck = std::numeric_limits<double>::infinity();
    for (NodeId v = t; v != s;) {
      const auto [p, idx] = parent[v];
      bottleneck = std::min(bottleneck, network.arcs(p)[idx].residual());
      v = p;
    }
    for (NodeId v = t; v != s;) {
      const auto [p, idx] = parent[v];
      network.push(p, idx, bottleneck);
      v = p;
    }
    total += bottleneck;
  }
  return total;
}

PushRelabelState::PushRelabelState(NodeId n, NodeId s)
    : height_(n, 0), excess_(n, 0.0) {
  height_.at(s) = n;  // the classic initialization
}

void global_relabel(const FlowNetwork& net, PushRelabelState& state, NodeId s,
                    NodeId t) {
  const NodeId n = net.num_nodes();
  constexpr std::uint32_t kUnset = UINT32_MAX;

  // Backward BFS over residual arcs: dist_to[x] = residual distance x -> seed.
  auto residual_distances = [&](NodeId seed) {
    std::vector<std::uint32_t> dist(n, kUnset);
    std::queue<NodeId> queue;
    dist[seed] = 0;
    queue.push(seed);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop();
      for (const auto& a : net.arcs(u)) {
        // The paired arc at a.rev_node is exactly (a.to -> u); if it has
        // residual capacity then a.to can reach u, hence the seed.
        const auto& reverse = net.arcs(a.rev_node)[a.rev_index];
        if (reverse.residual() > 0.0 && dist[a.to] == kUnset) {
          dist[a.to] = dist[u] + 1;
          queue.push(a.to);
        }
      }
    }
    return dist;
  };

  const auto dist_t = residual_distances(t);
  const auto dist_s = residual_distances(s);
  for (NodeId v = 0; v < n; ++v) {
    if (v == s || v == t) continue;
    std::uint32_t fresh = kUnset;
    if (dist_t[v] != kUnset) {
      fresh = dist_t[v];
    } else if (dist_s[v] != kUnset) {
      fresh = n + dist_s[v];
    }
    // Take the max with the current label: heights must never decrease,
    // and BFS distances are always a valid labeling.
    if (fresh != kUnset && fresh > state.height(v)) {
      state.set_height(v, fresh);
    }
  }
}

AppSpec make_spec(FlowNetwork& net, PushRelabelState& state, NodeId s,
                  NodeId t) {
  if (s == t) throw std::invalid_argument("maxflow::make_spec: s == t");
  AppSpec spec;
  spec.items = net.num_nodes();
  // Saturating pre-push out of the source.
  auto& source_arcs = net.arcs(s);
  for (std::uint32_t i = 0; i < source_arcs.size(); ++i) {
    auto& a = source_arcs[i];
    if (a.capacity > 0.0) {
      net.push(s, i, a.capacity);
      state.set_excess(a.to, state.excess(a.to) + a.capacity);
      state.set_excess(s, state.excess(s) - a.capacity);
      if (a.to != t) spec.initial.push_back(a.to);
    }
  }
  spec.op = [&net, &state, s, t](TaskId task, IterationContext& ctx) {
    const auto v = static_cast<NodeId>(task);
    if (v == s || v == t) return;
    if (!ctx.acquire(v)) return;
    if (state.excess(v) <= 0.0) return;  // discharged by someone else

    // Acquire the full neighborhood up front: discharge reads neighbor
    // heights and may touch any residual arc, and nothing is written until
    // every lock is held, so an abort has nothing to undo.
    auto& arcs = net.arcs(v);
    for (const auto& a : arcs) {
      if (!ctx.acquire(a.to)) return;
    }

    const std::uint32_t h_v = state.height(v);
    for (std::uint32_t i = 0; i < arcs.size() && state.excess(v) > 0.0;
         ++i) {
      auto& a = arcs[i];
      if (a.residual() <= 0.0 || h_v != state.height(a.to) + 1) continue;
      const double delta = std::min(state.excess(v), a.residual());

      net.push(v, i, delta);
      state.set_excess(v, state.excess(v) - delta);
      state.set_excess(a.to, state.excess(a.to) + delta);
      if (a.to != s && a.to != t) ctx.push(a.to);
    }

    if (state.excess(v) > 0.0) {
      // The scan above left no admissible arc, so a relabel is sound:
      // lift v just above its lowest residual neighbor (all held).
      std::uint32_t lowest = UINT32_MAX;
      for (const auto& a : arcs) {
        if (a.residual() > 0.0) {
          lowest = std::min(lowest, state.height(a.to));
        }
      }
      if (lowest != UINT32_MAX && lowest + 1 > state.height(v)) {
        state.set_height(v, lowest + 1);
      }
      ctx.push(v);  // still active
    }
  };
  spec.footprint = [&net](TaskId task, std::vector<std::uint32_t>& fp) {
    const auto v = static_cast<NodeId>(task);
    fp.push_back(v);
    for (const auto& a : net.arcs(v)) fp.push_back(a.to);
  };
  auto rounds_since = std::make_shared<std::uint32_t>(0);
  spec.before_round = [&net, &state, s, t,
                       rounds_since](SpeculativeExecutor&) {
    if (++*rounds_since >= 64) {
      *rounds_since = 0;
      global_relabel(net, state, s, t);
    }
  };
  return spec;
}

}  // namespace optipar::maxflow
