// Bowyer–Watson incremental Delaunay triangulation. One insertion routine
// serves both the sequential construction of the initial mesh and the
// speculative refinement operator: the InsertHooks let the speculative
// caller acquire abstract locks on every triangle the insertion visits,
// all before the first mutation, so an aborted insertion has written
// nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "apps/dmr/mesh.hpp"

namespace optipar::dmr {

/// The first three point ids of a built mesh are the bounding
/// super-triangle's corners; triangles using them are never refined.
inline constexpr PointId kNumSuperVertices = 3;

struct InsertHooks {
  /// Called before the insertion first reads or writes a triangle; may
  /// throw (AbortIteration) to cancel the insertion before any mutation.
  std::function<void(TriId)> touch;
  /// A freshly created triangle (reported after full wiring).
  std::function<void(TriId)> created;
};

struct InsertResult {
  bool ok = false;
  std::vector<TriId> created;  ///< the retriangulated cavity
};

/// Insert point `p` (already added to the mesh) whose coordinates lie
/// strictly inside the circumcircle of alive triangle `seed`. Carves the
/// Bowyer–Watson cavity, retriangulates it as a fan around p, and wires
/// all adjacency. Returns ok=false without mutating anything when the
/// configuration is degenerate (p coincides with an existing cavity
/// vertex, or the seed's circumcircle does not contain p numerically).
///
/// IMPORTANT phase discipline: all reads (cavity discovery) happen before
/// the first mutation, and `touch` has been called on every triangle that
/// will be read or written, so a speculative abort during discovery needs
/// no rollback at all. The fan's triangle slots are claimed in one arena
/// call after discovery, so a full arena throws std::length_error before
/// the first write too.
InsertResult insert_point(Mesh& mesh, PointId p, TriId seed,
                          const InsertHooks* hooks = nullptr);

/// Read-only Bowyer–Watson discovery: the cavity of `p` seeded at alive
/// triangle `seed` (whose circumcircle must contain p) plus the ring of
/// boundary-outer triangles. Together these are exactly the triangles a
/// speculative insertion would lock — the task's conflict footprint.
struct CavityFootprint {
  std::vector<TriId> cavity;
  std::vector<TriId> ring;  ///< alive outer neighbors across boundary edges
};
[[nodiscard]] CavityFootprint probe_cavity(const Mesh& mesh, const Point2& p,
                                           TriId seed);

/// Build the Delaunay triangulation of `pts`: creates a huge bounding
/// super-triangle (vertices 0..2), inserts every point sequentially, and
/// leaves super-triangle-incident triangles in place (callers skip them
/// via kNumSuperVertices). The mesh must be empty; reserves capacity for
/// `extra_capacity_factor`× the construction size so later speculative
/// refinement never reallocates. Returns the ids of the inserted points.
std::vector<PointId> build_delaunay(Mesh& mesh, std::span<const Point2> pts,
                                    double extra_capacity_factor = 8.0);

}  // namespace optipar::dmr
