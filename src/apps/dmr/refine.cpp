#include "apps/dmr/refine.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <unordered_map>

namespace optipar::dmr {

void RefineQuality::set_domain(std::span<const Point2> pts, double margin) {
  if (pts.empty()) return;
  domain_lo_x = domain_hi_x = pts[0].x;
  domain_lo_y = domain_hi_y = pts[0].y;
  for (const auto& p : pts) {
    domain_lo_x = std::min(domain_lo_x, p.x);
    domain_hi_x = std::max(domain_hi_x, p.x);
    domain_lo_y = std::min(domain_lo_y, p.y);
    domain_hi_y = std::max(domain_hi_y, p.y);
  }
  domain_lo_x -= margin;
  domain_lo_y -= margin;
  domain_hi_x += margin;
  domain_hi_y += margin;
}

namespace {

/// The fallback insertion point: strictly interior to t.
Point2 centroid_of(const Mesh& mesh, TriId t) {
  return {(mesh.corner(t, 0).x + mesh.corner(t, 1).x + mesh.corner(t, 2).x) /
              3.0,
          (mesh.corner(t, 0).y + mesh.corner(t, 1).y + mesh.corner(t, 2).y) /
              3.0};
}

/// True when p is a usable insertion point (finite, inside the domain).
bool insertable(const RefineQuality& q, const Point2& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && q.in_domain(p);
}

}  // namespace

bool is_bad(const Mesh& mesh, TriId t, const RefineQuality& q) {
  if (!mesh.is_alive(t)) return false;
  const Triangle& tri = mesh.tri(t);
  for (const PointId v : tri.v) {
    if (v < kNumSuperVertices) return false;  // bordering the fake boundary
  }
  for (int i = 0; i < 3; ++i) {
    if (!q.in_domain(mesh.corner(t, i))) return false;
  }
  if (mesh.shortest_edge_of(t) < q.min_edge) return false;
  const double threshold = q.min_angle_deg * std::numbers::pi / 180.0;
  return mesh.min_angle_of(t) < threshold;
}

std::vector<TriId> bad_triangles(const Mesh& mesh, const RefineQuality& q) {
  std::vector<TriId> out;
  for (const TriId t : mesh.alive_triangles()) {
    if (is_bad(mesh, t, q)) out.push_back(t);
  }
  return out;
}

std::vector<TriId> refine_one(Mesh& mesh, TriId t, const RefineQuality& q,
                              const InsertHooks* hooks) {
  if (hooks != nullptr && hooks->touch) hooks->touch(t);
  if (!is_bad(mesh, t, q)) return {};
  const Point2 center = mesh.circumcenter_of(t);
  if (insertable(q, center)) {
    // The circumcenter is inside the bad triangle's own circumcircle by
    // definition, so t seeds the Bowyer–Watson cavity directly — no point
    // location needed (Chew's kernel).
    const PointId pid = mesh.add_point(center);
    const InsertResult res = insert_point(mesh, pid, t, hooks);
    if (res.ok) return res.created;
  }
  // Slivers can have circumcenters far outside the (super-triangle)
  // domain, where the fan would be rejected. Fall back to the centroid:
  // strictly interior to t, so its insertion always splits t and makes
  // progress toward the min_edge floor.
  const PointId pid = mesh.add_point(centroid_of(mesh, t));
  const InsertResult res = insert_point(mesh, pid, t, hooks);
  return res.created;  // empty only in pathological degeneracies
}

std::size_t refine_sequential(Mesh& mesh, const RefineQuality& q,
                              std::size_t max_insertions) {
  std::vector<TriId> worklist = bad_triangles(mesh, q);
  std::size_t insertions = 0;
  while (!worklist.empty() && insertions < max_insertions) {
    const TriId t = worklist.back();
    worklist.pop_back();
    const auto created = refine_one(mesh, t, q, nullptr);
    if (created.empty()) continue;
    ++insertions;
    for (const TriId nt : created) {
      if (is_bad(mesh, nt, q)) worklist.push_back(nt);
    }
  }
  return insertions;
}

CsrGraph refinement_conflict_graph(const Mesh& mesh, const RefineQuality& q,
                                   const std::vector<TriId>& bad) {
  // Inverted index: mesh triangle -> bad-task indices whose footprint
  // contains it. Footprint = the triangles refine_one would lock.
  std::unordered_map<TriId, std::vector<NodeId>> owners;
  for (NodeId task = 0; task < static_cast<NodeId>(bad.size()); ++task) {
    const TriId t = bad[task];
    Point2 center = mesh.circumcenter_of(t);
    // Centroid fallback mirrors refine_one's insertion point choice.
    if (!insertable(q, center)) center = centroid_of(mesh, t);
    auto footprint = probe_cavity(mesh, center, t);
    footprint.cavity.push_back(t);  // the task always locks its own target
    for (const TriId tri : footprint.cavity) owners[tri].push_back(task);
    for (const TriId tri : footprint.ring) owners[tri].push_back(task);
  }
  EdgeList edges;
  for (const auto& [tri, tasks] : owners) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      for (std::size_t j = i + 1; j < tasks.size(); ++j) {
        if (tasks[i] != tasks[j]) edges.emplace_back(tasks[i], tasks[j]);
      }
    }
  }
  return CsrGraph::from_edges(static_cast<NodeId>(bad.size()), edges);
}

AppSpec make_spec(Mesh& mesh, const RefineQuality& q) {
  AppSpec spec;
  spec.items = mesh.num_triangle_slots();
  const std::vector<TriId> bad = bad_triangles(mesh, q);
  spec.initial.assign(bad.begin(), bad.end());
  spec.op = [&mesh, q](TaskId task, IterationContext& ctx) {
    const auto t = static_cast<TriId>(task);
    InsertHooks hooks;
    // The cavity walk runs deep inside refine_one, so a failed acquire
    // unwinds it with a throw rather than a return through every frame.
    hooks.touch = [&ctx](TriId tri) {
      if (!ctx.acquire(tri)) throw AbortIteration{};
    };
    const auto created = refine_one(mesh, t, q, &hooks);
    for (const TriId nt : created) {
      if (is_bad(mesh, nt, q)) ctx.push(nt);
    }
  };
  spec.footprint = [&mesh, q](TaskId task, std::vector<std::uint32_t>& fp) {
    const auto t = static_cast<TriId>(task);
    fp.push_back(t);
    if (!is_bad(mesh, t, q)) return;
    const auto add = [&fp](const CavityFootprint& c) {
      fp.insert(fp.end(), c.cavity.begin(), c.cavity.end());
      fp.insert(fp.end(), c.ring.begin(), c.ring.end());
    };
    const Point2 center = mesh.circumcenter_of(t);
    if (insertable(q, center)) add(probe_cavity(mesh, center, t));
    add(probe_cavity(mesh, centroid_of(mesh, t), t));
  };
  spec.before_round = [&mesh](SpeculativeExecutor& ex) {
    ex.grow_items(mesh.num_triangle_slots());
    ex.invalidate_schedule();
  };
  return spec;
}

}  // namespace optipar::dmr
