#include "apps/dmr/delaunay.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace optipar::dmr {

namespace {

struct BoundaryEdge {
  PointId a = 0;       ///< edge (a, b), CCW as seen from inside the cavity
  PointId b = 0;
  TriId outer = kNoNeighbor;  ///< triangle across the edge (may be none)
  int outer_slot = -1;        ///< slot in `outer` facing the cavity
};

}  // namespace

InsertResult insert_point(Mesh& mesh, PointId p, TriId seed,
                          const InsertHooks* hooks) {
  InsertResult result;
  const Point2& pt = mesh.point(p);

  auto touch = [&](TriId t) {
    if (hooks != nullptr && hooks->touch) hooks->touch(t);
  };

  // ---- Phase 1: read-only cavity discovery --------------------------
  touch(seed);
  if (!mesh.is_alive(seed) || !mesh.in_circumcircle(seed, pt)) {
    return result;  // degenerate seed; nothing mutated
  }

  std::vector<TriId> cavity;
  std::vector<BoundaryEdge> boundary;
  std::unordered_map<TriId, bool> in_cavity;  // visited -> inside?
  std::vector<TriId> stack{seed};
  in_cavity[seed] = true;

  while (!stack.empty()) {
    const TriId t = stack.back();
    stack.pop_back();
    cavity.push_back(t);
    for (int i = 0; i < 3; ++i) {
      const TriId n = mesh.neighbor(t, i);
      const PointId ea = mesh.tri(t).v[static_cast<std::size_t>((i + 1) % 3)];
      const PointId eb = mesh.tri(t).v[static_cast<std::size_t>((i + 2) % 3)];
      if (n == kNoNeighbor) {
        boundary.push_back({ea, eb, kNoNeighbor, -1});
        continue;
      }
      const auto it = in_cavity.find(n);
      if (it != in_cavity.end()) {
        if (!it->second) {
          boundary.push_back({ea, eb, n, mesh.slot_of_neighbor(n, t)});
        }
        continue;
      }
      touch(n);  // acquire before reading the neighbor's geometry
      const bool inside = mesh.is_alive(n) && mesh.in_circumcircle(n, pt);
      in_cavity[n] = inside;
      if (inside) {
        stack.push_back(n);
      } else {
        boundary.push_back({ea, eb, n, mesh.slot_of_neighbor(n, t)});
      }
    }
  }

  // Degeneracy guard: if p collides with a cavity-boundary vertex the fan
  // would contain zero-area triangles. Reject before mutating.
  for (const auto& e : boundary) {
    if (mesh.point(e.a) == pt || mesh.point(e.b) == pt) return result;
    // New triangle (p, a, b) must be strictly CCW.
    if (orient2d(pt, mesh.point(e.a), mesh.point(e.b)) <= 0) return result;
  }

  // Fan around p: new triangle (p, a, b) per boundary edge, claimed in one
  // arena call so that a full arena throws before the first write. Slot
  // layout:
  //   v = {p, a, b};  nbr[0] (opposite p) = outer,
  //   nbr[1] (edge b–p) = fan sibling with a' == b,
  //   nbr[2] (edge p–a) = fan sibling with b' == a.
  std::vector<std::array<PointId, 3>> fan;
  fan.reserve(boundary.size());
  for (const auto& e : boundary) fan.push_back({p, e.a, e.b});
  const TriId first = mesh.create_triangles(fan);

  // ---- Phase 2: mutation ---------------------------------------------
  for (const TriId t : cavity) mesh.kill_triangle(t);
  std::unordered_map<PointId, TriId> by_a;  // edge's a-vertex -> triangle
  std::unordered_map<PointId, TriId> by_b;
  result.created.reserve(boundary.size());
  for (std::size_t i = 0; i < boundary.size(); ++i) {
    const auto& e = boundary[i];
    const auto nt = static_cast<TriId>(first + i);
    mesh.set_neighbor(nt, 0, e.outer);
    if (e.outer != kNoNeighbor) mesh.set_neighbor(e.outer, e.outer_slot, nt);
    by_a[e.a] = nt;
    by_b[e.b] = nt;
    result.created.push_back(nt);
  }
  for (std::size_t i = 0; i < boundary.size(); ++i) {
    const auto& e = boundary[i];
    const TriId nt = result.created[i];
    mesh.set_neighbor(nt, 1, by_a.at(e.b));  // across edge (b, p)
    mesh.set_neighbor(nt, 2, by_b.at(e.a));  // across edge (p, a)
  }
  if (hooks != nullptr && hooks->created) {
    for (const TriId nt : result.created) hooks->created(nt);
  }
  result.ok = true;
  return result;
}

CavityFootprint probe_cavity(const Mesh& mesh, const Point2& p, TriId seed) {
  CavityFootprint out;
  if (!mesh.is_alive(seed) || !mesh.in_circumcircle(seed, p)) return out;
  std::unordered_map<TriId, bool> in_cavity;
  std::vector<TriId> stack{seed};
  in_cavity[seed] = true;
  while (!stack.empty()) {
    const TriId t = stack.back();
    stack.pop_back();
    out.cavity.push_back(t);
    for (int i = 0; i < 3; ++i) {
      const TriId n = mesh.neighbor(t, i);
      if (n == kNoNeighbor) continue;
      const auto it = in_cavity.find(n);
      if (it != in_cavity.end()) continue;
      const bool inside = mesh.is_alive(n) && mesh.in_circumcircle(n, p);
      in_cavity[n] = inside;
      if (inside) {
        stack.push_back(n);
      } else if (mesh.is_alive(n)) {
        out.ring.push_back(n);
      }
    }
  }
  return out;
}

std::vector<PointId> build_delaunay(Mesh& mesh, std::span<const Point2> pts,
                                    double extra_capacity_factor) {
  if (mesh.num_triangle_slots() != 0 || mesh.num_points() != 0) {
    throw std::invalid_argument("build_delaunay: mesh must be empty");
  }
  if (pts.empty()) throw std::invalid_argument("build_delaunay: no points");
  if (extra_capacity_factor < 1.0) extra_capacity_factor = 1.0;

  // Bounding box -> huge super-triangle (far enough that its circumcircle
  // interactions never leak into the interior for our point scales).
  double min_x = pts[0].x, max_x = pts[0].x;
  double min_y = pts[0].y, max_y = pts[0].y;
  for (const auto& p : pts) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double span = std::max({max_x - min_x, max_y - min_y, 1.0});
  const double cx = 0.5 * (min_x + max_x);
  const double cy = 0.5 * (min_y + max_y);
  const double r = 32.0 * span;

  // Generous arenas: construction needs ~2·n triangles; refinement needs
  // headroom (see Mesh::reserve's concurrency note).
  const auto budget = static_cast<std::size_t>(
      extra_capacity_factor * (8.0 * static_cast<double>(pts.size()) + 64.0));
  mesh.reserve(budget, 4 * budget);

  const PointId s0 = mesh.add_point({cx - 2.0 * r, cy - r});
  const PointId s1 = mesh.add_point({cx + 2.0 * r, cy - r});
  const PointId s2 = mesh.add_point({cx, cy + 2.0 * r});
  TriId last = mesh.create_triangle(s0, s1, s2);

  std::vector<PointId> inserted;
  inserted.reserve(pts.size());
  for (const auto& p : pts) {
    const TriId container = mesh.locate(p, last);
    if (container == kNoNeighbor) {
      throw std::logic_error("build_delaunay: point outside super-triangle");
    }
    const PointId pid = mesh.add_point(p);
    const InsertResult res = insert_point(mesh, pid, container, nullptr);
    if (!res.ok) continue;  // duplicate/degenerate point: skip it
    inserted.push_back(pid);
    last = res.created.front();
  }
  return inserted;
}

}  // namespace optipar::dmr
