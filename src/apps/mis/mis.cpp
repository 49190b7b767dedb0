#include "apps/mis/mis.hpp"

namespace optipar::mis {

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
