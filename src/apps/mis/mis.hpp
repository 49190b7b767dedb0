// Speculative maximal independent set — the "flag-based" Galois kernel.
// A task inspects node v and its whole neighborhood: if no neighbor is
// already IN, v enters the set and all undecided neighbors become OUT.
// Overlapping neighborhoods conflict, which makes MIS a high-contention
// stress test for the allocation controller on dense graphs.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/app_spec.hpp"
#include "graph/csr_graph.hpp"
#include "rt/spec_executor.hpp"

namespace optipar::mis {

enum class NodeState : std::uint8_t { kUndecided = 0, kIn = 1, kOut = 2 };

/// Per-node decision state; mutated only under the runtime's node locks.
class MisState {
 public:
  explicit MisState(NodeId n) : state_(n, NodeState::kUndecided) {}

  [[nodiscard]] NodeState get(NodeId v) const { return state_[v]; }
  void set(NodeId v, NodeState s) { state_[v] = s; }
  [[nodiscard]] NodeId size() const noexcept {
    return static_cast<NodeId>(state_.size());
  }
  [[nodiscard]] std::vector<NodeId> in_set() const;
  [[nodiscard]] bool all_decided() const;

 private:
  std::vector<NodeState> state_;
};

[[nodiscard]] TaskOperator make_mis_operator(const CsrGraph& graph,
                                             MisState& state);

/// Every node is a task; each acquires its closed neighbourhood.
[[nodiscard]] AppSpec make_spec(const CsrGraph& graph, MisState& state);

}  // namespace optipar::mis
