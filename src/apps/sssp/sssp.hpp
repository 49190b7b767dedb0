// Single-source shortest paths by chaotic relaxation — the classic
// *unordered* formulation of SSSP (Bellman–Ford without a schedule): a
// task relaxes one node's outgoing arcs; any relaxation order converges to
// the same fixed point, so speculative execution applies directly. Checked
// against a sequential Dijkstra.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "apps/app_spec.hpp"
#include "graph/weighted_graph.hpp"

namespace optipar::sssp {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Sequential reference (binary-heap Dijkstra). Requires non-negative
/// weights; throws std::invalid_argument otherwise.
[[nodiscard]] std::vector<double> dijkstra(const WeightedGraph& g,
                                           NodeId source);

/// Distance table shared by the speculative iterations; entry v is only
/// written while the runtime's lock on v is held.
class DistanceTable {
 public:
  DistanceTable(NodeId n, NodeId source);

  [[nodiscard]] double get(NodeId v) const { return dist_[v]; }
  void set(NodeId v, double d) { dist_[v] = d; }
  [[nodiscard]] const std::vector<double>& all() const noexcept {
    return dist_;
  }

 private:
  std::vector<double> dist_;
};

/// Speculative relaxation over every node (tasks are node ids): a task
/// acquires v and every arc target, then relaxes the arcs and pushes each
/// target it improves.
/// The initial work-set is every node; set it to {source} to start from
/// the source alone.
[[nodiscard]] AppSpec make_spec(const WeightedGraph& g, DistanceTable& dist);

/// Draw priority for WorklistPolicy::kPriority (OBIM-style soft priority):
/// nodes with a smaller tentative distance relax first, in the spirit of
/// delta-stepping. Chaotic relaxation is order-independent, so the order
/// is best effort and needs no commit-order machinery; it usually commits
/// far fewer relaxations than random order. The executor evaluates it
/// outside the parallel section, so the unlocked read is safe.
[[nodiscard]] std::function<std::uint64_t(TaskId)> distance_priority(
    const DistanceTable& dist);

}  // namespace optipar::sssp
