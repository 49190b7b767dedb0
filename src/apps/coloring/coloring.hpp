// Speculative greedy graph coloring: a task assigns node v the smallest
// color absent from its neighborhood. The neighborhood must be read
// atomically (all neighbor locks held), otherwise two adjacent nodes could
// pick the same color — exactly the conflict optimistic parallelization
// detects and aborts. The one write (v's color) follows the last acquire,
// so an aborted task has written nothing. Always uses at most
// max_degree + 1 colors.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/app_spec.hpp"
#include "graph/csr_graph.hpp"
#include "rt/spec_executor.hpp"

namespace optipar::coloring {

inline constexpr std::uint32_t kUncolored = UINT32_MAX;

class ColoringState {
 public:
  explicit ColoringState(NodeId n) : color_(n, kUncolored) {}

  [[nodiscard]] std::uint32_t color(NodeId v) const { return color_[v]; }
  void set_color(NodeId v, std::uint32_t c) { color_[v] = c; }
  [[nodiscard]] NodeId size() const noexcept {
    return static_cast<NodeId>(color_.size());
  }
  /// Number of distinct colors used (0 if nothing colored).
  [[nodiscard]] std::uint32_t colors_used() const;
  /// True iff fully colored and no edge is monochromatic.
  [[nodiscard]] bool is_proper(const CsrGraph& graph) const;

 private:
  std::vector<std::uint32_t> color_;
};

[[nodiscard]] TaskOperator make_coloring_operator(const CsrGraph& graph,
                                                  ColoringState& state);

/// Every node is a task; each acquires its closed neighbourhood.
[[nodiscard]] AppSpec make_spec(const CsrGraph& graph, ColoringState& state);

}  // namespace optipar::coloring
