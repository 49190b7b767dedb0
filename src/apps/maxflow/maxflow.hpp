// Maximum flow by speculative push–relabel (Goldberg–Tarjan). The
// asynchronous formulation is naturally amorphous-data-parallel: a task
// discharges one active node (pushes excess along admissible arcs,
// relabeling when stuck); tasks touching overlapping neighborhoods
// conflict. Verified against a sequential Edmonds–Karp.
//
// Integer-valued capacities (stored as doubles) keep all arithmetic exact.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/app_spec.hpp"
#include "graph/csr_graph.hpp"

namespace optipar::maxflow {

/// Directed flow network with explicit residual (reverse) arcs. The arc
/// structure is frozen before execution; only `flow` fields mutate, always
/// under the runtime's locks on both endpoints.
class FlowNetwork {
 public:
  struct FlowArc {
    NodeId to = 0;
    double capacity = 0.0;
    double flow = 0.0;
    NodeId rev_node = 0;       ///< owner of the paired reverse arc
    std::uint32_t rev_index = 0;  ///< its index within rev_node's list

    [[nodiscard]] double residual() const noexcept {
      return capacity - flow;
    }
  };

  explicit FlowNetwork(NodeId n) : arcs_(n) {}

  [[nodiscard]] NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(arcs_.size());
  }
  /// Add a directed arc u -> v with the given capacity (creates the paired
  /// zero-capacity reverse arc). Must not be called once execution starts.
  void add_arc(NodeId u, NodeId v, double capacity);

  [[nodiscard]] const std::vector<FlowArc>& arcs(NodeId v) const {
    return arcs_[v];
  }
  [[nodiscard]] std::vector<FlowArc>& arcs(NodeId v) { return arcs_[v]; }

  /// Push `amount` along arcs_[u][index] and pull it back on the reverse
  /// arc. Caller holds both endpoints' locks.
  void push(NodeId u, std::uint32_t index, double amount);

  /// Flow conservation + capacity constraints; excess allowed only at s, t.
  [[nodiscard]] bool is_feasible(NodeId s, NodeId t) const;
  /// Net flow out of s (== into t for a feasible flow).
  [[nodiscard]] double flow_value(NodeId s) const;
  void reset_flow();

 private:
  std::vector<std::vector<FlowArc>> arcs_;
};

/// Sequential reference: Edmonds–Karp (BFS augmenting paths) on a private
/// copy of the network. Returns the max-flow value.
[[nodiscard]] double edmonds_karp(FlowNetwork network, NodeId s, NodeId t);

/// Per-node push-relabel state, guarded by the runtime's node locks.
class PushRelabelState {
 public:
  PushRelabelState(NodeId n, NodeId s);

  [[nodiscard]] std::uint32_t height(NodeId v) const { return height_[v]; }
  void set_height(NodeId v, std::uint32_t h) { height_[v] = h; }
  [[nodiscard]] double excess(NodeId v) const { return excess_[v]; }
  void set_excess(NodeId v, double e) { excess_[v] = e; }

 private:
  std::vector<std::uint32_t> height_;
  std::vector<double> excess_;
};

/// The classic global-relabeling heuristic: recompute every height as the
/// exact BFS distance to t in the residual graph (n + distance-to-s for
/// nodes that cannot reach t). Must run between rounds (no locks held).
/// Sound because BFS distances are valid distance labels and never below
/// the current labels' admissible structure requirements.
void global_relabel(const FlowNetwork& net, PushRelabelState& state, NodeId s,
                    NodeId t);

/// Speculative push-relabel from s to t. Building the spec saturates every
/// arc out of s (the preflow), so `net` and `state` must be fresh; the
/// initial work-set is the preflow's targets other than t. A task
/// discharges one active node: it acquires v and every arc target, pushes
/// along admissible arcs and relabels when stuck. The hook runs
/// global_relabel every 64 rounds, which typically cuts the round count by
/// orders of magnitude. Throws std::invalid_argument when s == t.
[[nodiscard]] AppSpec make_spec(FlowNetwork& net, PushRelabelState& state,
                                NodeId s, NodeId t);

}  // namespace optipar::maxflow
