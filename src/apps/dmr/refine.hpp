// Delaunay mesh refinement — the paper's running example of amorphous data
// parallelism (§2). Bad triangles (small minimum angle) are fixed by
// inserting their circumcenter, which re-triangulates the surrounding
// cavity; refinements whose cavities overlap conflict. Provided both as a
// sequential reference and as an application spec for the runtime.
#pragma once

#include <cstdint>

#include "apps/app_spec.hpp"
#include "apps/dmr/delaunay.hpp"
#include "apps/dmr/mesh.hpp"
#include "graph/csr_graph.hpp"

namespace optipar::dmr {

struct RefineQuality {
  double min_angle_deg = 26.0;  ///< bad iff the minimum angle is below this
  /// Triangles whose shortest edge is already below this are left alone —
  /// a size floor that guarantees termination for any angle target.
  double min_edge = 1e-2;
  /// Refinement domain (the meshed region). Triangles with a vertex
  /// outside it are never refined and no point is inserted outside it —
  /// this is the stand-in for real boundary handling, preventing the
  /// refinement from cascading into the artificial super-triangle annulus.
  /// Defaults to unbounded.
  double domain_lo_x = -1e300;
  double domain_lo_y = -1e300;
  double domain_hi_x = 1e300;
  double domain_hi_y = 1e300;

  [[nodiscard]] bool in_domain(const Point2& p) const noexcept {
    return p.x >= domain_lo_x && p.x <= domain_hi_x && p.y >= domain_lo_y &&
           p.y <= domain_hi_y;
  }
  /// Set the domain to the bounding box of `pts` expanded by `margin`.
  void set_domain(std::span<const Point2> pts, double margin = 0.0);
};

/// A triangle is refinable-bad: alive, not incident to the super-triangle,
/// below the angle target, and above the size floor.
[[nodiscard]] bool is_bad(const Mesh& mesh, TriId t, const RefineQuality& q);

/// All currently bad triangles (the initial work-set).
[[nodiscard]] std::vector<TriId> bad_triangles(const Mesh& mesh,
                                               const RefineQuality& q);

/// Attempt one refinement: insert the circumcenter of bad triangle t.
/// Returns the newly created triangles (empty if t was skipped because it
/// is no longer alive/bad or the insertion was degenerate). `hooks` makes
/// the same code path speculative.
std::vector<TriId> refine_one(Mesh& mesh, TriId t, const RefineQuality& q,
                              const InsertHooks* hooks = nullptr);

/// Sequential reference refinement. Returns the number of successful
/// insertions (stops early at max_insertions).
std::size_t refine_sequential(Mesh& mesh, const RefineQuality& q,
                              std::size_t max_insertions = SIZE_MAX);

/// Speculative refinement over triangle ids, starting from the current bad
/// triangles; commits push any new bad triangles back onto the work-set.
/// The footprint of a bad triangle is the Bowyer–Watson cavity and ring of
/// BOTH candidate insertion points (circumcenter, centroid): refine_one
/// falls back from the first to the second, so their union covers whatever
/// it ends up locking. The hook grows the lock table over the triangles
/// the last round allocated and, since the mesh changes every round,
/// invalidates the standing schedule.
[[nodiscard]] AppSpec make_spec(Mesh& mesh, const RefineQuality& q);

/// The instantaneous CC (conflict) graph of the refinement work-set:
/// nodes = the current bad triangles, edge iff their speculative lock
/// footprints (cavity + boundary ring of the point they would insert)
/// intersect. This is the graph the paper's model analyses; feeding it to
/// estimate_conflict_curve predicts the runtime's observed conflict ratio
/// (see bench/model_vs_runtime).
[[nodiscard]] CsrGraph refinement_conflict_graph(
    const Mesh& mesh, const RefineQuality& q,
    const std::vector<TriId>& bad);

}  // namespace optipar::dmr
