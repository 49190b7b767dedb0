// Speculative maximal independent set — the "flag-based" Galois kernel.
// A task inspects node v and its whole neighborhood: if no neighbor is
// already IN, v enters the set and all undecided neighbors become OUT.
// Overlapping neighborhoods conflict, which makes MIS a high-contention
// stress test for the allocation controller on dense graphs.
#pragma once

#include <cstdint>
#include <span>
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

/// Sequential greedy MIS over `order` (every node exactly once), as a
/// branchless SIMD sweep: v enters the set iff no earlier neighbor did.
/// This is the serial oracle the speculative runtime is compared against
/// (its committed set for a full-permutation round equals this sweep for
/// the same order — see model/permutation_sweep). The neighborhood probe
/// is a gathered compare over an in-set flag table, and the per-node
/// decision is an unconditional store, so the inner loop carries no
/// data-dependent branch.
[[nodiscard]] std::vector<NodeId> greedy_sweep(const CsrGraph& graph,
                                               std::span<const NodeId> order);

}  // namespace optipar::mis
