#include "apps/mis/mis.hpp"

#include <stdexcept>

#include "support/simd.hpp"

namespace optipar::mis {

std::vector<NodeId> greedy_sweep(const CsrGraph& graph,
                                 std::span<const NodeId> order) {
  const NodeId n = graph.num_nodes();
  if (order.size() != n) {
    throw std::invalid_argument("greedy_sweep: order size mismatch");
  }
  // u32 flags (1 = in the set) so the neighborhood probe is a pure
  // gather+compare; the result vector is built afterwards from the flags.
  std::vector<std::uint32_t> in_flags(n, 0);
  const simd::Isa isa = simd::active_isa();
  for (const NodeId v : order) {
    if (v >= n) throw std::invalid_argument("greedy_sweep: node out of range");
    const std::span<const NodeId> nbrs = graph.neighbors(v);
    const bool blocked = simd::any_equal_gather_u32(
        in_flags.data(), nbrs.data(), nbrs.size(), 1, isa);
    in_flags[v] = blocked ? 0 : 1;  // cmov, not a branch
  }
  std::vector<NodeId> out;
  for (NodeId v = 0; v < n; ++v) {
    if (in_flags[v] == 1) out.push_back(v);
  }
  return out;
}

std::vector<NodeId> MisState::in_set() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < size(); ++v) {
    if (state_[v] == NodeState::kIn) out.push_back(v);
  }
  return out;
}

bool MisState::all_decided() const {
  for (const auto s : state_) {
    if (s == NodeState::kUndecided) return false;
  }
  return true;
}

TaskOperator make_mis_operator(const CsrGraph& graph, MisState& state) {
  return [&graph, &state](TaskId task, IterationContext& ctx) {
    const auto v = static_cast<NodeId>(task);
    if (!ctx.acquire(v)) return;
    if (state.get(v) != NodeState::kUndecided) return;  // no-op commit

    // Acquire the full neighborhood before reading any of it. Every write
    // below comes after the last acquire, so an abort has nothing to undo.
    for (const NodeId w : graph.neighbors(v)) {
      if (!ctx.acquire(w)) return;
    }

    bool blocked = false;
    for (const NodeId w : graph.neighbors(v)) {
      if (state.get(w) == NodeState::kIn) {
        blocked = true;
        break;
      }
    }
    if (blocked) {
      state.set(v, NodeState::kOut);
      return;
    }
    state.set(v, NodeState::kIn);
    for (const NodeId w : graph.neighbors(v)) {
      if (state.get(w) == NodeState::kUndecided) {
        state.set(w, NodeState::kOut);
      }
    }
  };
}

AppSpec make_spec(const CsrGraph& graph, MisState& state) {
  AppSpec spec;
  spec.items = graph.num_nodes();
  spec.initial = all_tasks(graph.num_nodes());
  spec.op = make_mis_operator(graph, state);
  spec.footprint = closed_neighborhood(graph);
  return spec;
}

}  // namespace optipar::mis
