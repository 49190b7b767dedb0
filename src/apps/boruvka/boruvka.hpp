// Boruvka minimum-spanning-tree by speculative edge contraction — one of
// the Galois applications the paper lists (§1). A task takes an alive
// supernode v, picks its lightest incident edge (v, u) (safe for the MST by
// the cut property, since v is an entire component), records it, and
// contracts the endpoint with fewer adjacency entries into the other (v
// into u on a tie). Tasks whose neighborhoods overlap conflict. Both a
// sequential Kruskal reference and the speculative operator are provided.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "apps/app_spec.hpp"
#include "graph/csr_graph.hpp"
#include "rt/spec_executor.hpp"

namespace optipar::boruvka {

struct WeightedEdge {
  NodeId u = 0;
  NodeId v = 0;
  double w = 0.0;
};

/// Sequential reference: Kruskal with union–find. Returns total MST weight
/// (of the spanning forest, for disconnected inputs).
[[nodiscard]] double kruskal_mst_weight(NodeId n,
                                        std::vector<WeightedEdge> edges);

/// Contracted-graph state shared by the speculative iterations. All
/// per-node containers are only touched while the runtime's abstract lock
/// on that node is held.
class ContractionGraph {
 public:
  ContractionGraph(NodeId n, const std::vector<WeightedEdge>& edges);

  [[nodiscard]] NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(adj_.size());
  }
  [[nodiscard]] bool is_alive(NodeId v) const { return alive_[v] != 0; }
  [[nodiscard]] const std::unordered_map<NodeId, double>& adjacency(
      NodeId v) const {
    return adj_[v];
  }
  /// Lightest incident edge of v (ties broken by smaller neighbor id).
  [[nodiscard]] std::optional<WeightedEdge> lightest_edge(NodeId v) const;

  /// Sum of the recorded contraction edges == MST/forest weight once the
  /// work-set drains.
  [[nodiscard]] double chosen_weight() const;
  [[nodiscard]] std::uint32_t chosen_count() const;

  // Mutators used by the operator (caller holds the relevant locks).
  void set_alive(NodeId v, bool alive) { alive_[v] = alive ? 1 : 0; }
  void record_choice(NodeId v, double w, bool chosen) {
    chosen_w_[v] = w;
    chosen_flag_[v] = chosen ? 1 : 0;
  }
  [[nodiscard]] bool has_choice(NodeId v) const {
    return chosen_flag_[v] != 0;
  }
  std::unordered_map<NodeId, double>& mutable_adjacency(NodeId v) {
    return adj_[v];
  }

 private:
  std::vector<std::unordered_map<NodeId, double>> adj_;
  std::vector<std::uint8_t> alive_;
  std::vector<double> chosen_w_;
  std::vector<std::uint8_t> chosen_flag_;
};

/// The speculative contraction operator (tasks are node ids). A task on
/// v locks v and its lightest neighbour u; the one of the two with fewer
/// adjacency entries (v on a tie) dies into the other, and the chosen edge
/// is recorded on the node that dies. The task pushes v again only when v
/// survives. Precondition: every node starts with exactly one task. Then
/// every live node keeps exactly one task pending or running, and a node
/// absorbed as u keeps at most one, which runs as a dead no-op.
[[nodiscard]] TaskOperator make_boruvka_operator(ContractionGraph& graph);

/// Contract the whole graph: every node is a task, pushed once (the
/// operator's precondition). For a live v with a neighbour, the footprint
/// is {v, u} ∪ adjacency(from), where u is v's lightest neighbour and
/// `from` the endpoint that will die; otherwise it is {v}. It reads only
/// items inside it: v's adjacency, u's size and from's adjacency. It
/// changes as supernodes merge, so the hook invalidates the standing
/// schedule before every round (a no-op off the chromatic backend).
[[nodiscard]] AppSpec make_spec(ContractionGraph& graph);

}  // namespace optipar::boruvka
