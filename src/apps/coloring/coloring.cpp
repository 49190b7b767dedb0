#include "apps/coloring/coloring.hpp"

#include <algorithm>

namespace optipar::coloring {

std::uint32_t ColoringState::colors_used() const {
  std::uint32_t max_color = 0;
  bool any = false;
  for (const auto c : color_) {
    if (c != kUncolored) {
      max_color = std::max(max_color, c);
      any = true;
    }
  }
  return any ? max_color + 1 : 0;
}

bool ColoringState::is_proper(const CsrGraph& graph) const {
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (color_[v] == kUncolored) return false;
    for (const NodeId w : graph.neighbors(v)) {
      if (color_[w] == color_[v]) return false;
    }
  }
  return true;
}

TaskOperator make_coloring_operator(const CsrGraph& graph,
                                    ColoringState& state) {
  return [&graph, &state](TaskId task, IterationContext& ctx) {
    const auto v = static_cast<NodeId>(task);
    if (!ctx.acquire(v)) return;
    if (state.color(v) != kUncolored) return;  // no-op commit

    for (const NodeId w : graph.neighbors(v)) {
      if (!ctx.acquire(w)) return;
    }

    // Smallest color not used by any neighbor. The flags live in a
    // per-thread buffer so that a task allocates nothing.
    thread_local std::vector<std::uint8_t> taken;
    taken.assign(graph.degree(v) + 1, 0);
    for (const NodeId w : graph.neighbors(v)) {
      const std::uint32_t c = state.color(w);
      if (c != kUncolored && c < taken.size()) taken[c] = 1;
    }
    std::uint32_t chosen = 0;
    while (chosen < taken.size() && taken[chosen]) ++chosen;

    state.set_color(v, chosen);
  };
}

AppSpec make_spec(const CsrGraph& graph, ColoringState& state) {
  AppSpec spec;
  spec.items = graph.num_nodes();
  spec.initial = all_tasks(graph.num_nodes());
  spec.op = make_coloring_operator(graph, state);
  spec.footprint = closed_neighborhood(graph);
  return spec;
}

}  // namespace optipar::coloring
