#include "apps/dmr/mesh.hpp"

#include <algorithm>
#include <stdexcept>

namespace optipar::dmr {

void Mesh::reserve(std::size_t max_points, std::size_t max_triangles) {
  const std::lock_guard lock(arena_);
  if (max_points < points_.size() || max_triangles < tris_.size()) {
    throw std::length_error("Mesh::reserve: below current size");
  }
  points_.reserve(max_points);
  tris_.reserve(max_triangles);
  max_points_ = max_points;
  max_triangles_ = max_triangles;
}

PointId Mesh::add_point(const Point2& p) {
  const std::lock_guard lock(arena_);
  if (max_points_ != 0 && points_.size() >= max_points_) {
    throw std::length_error("Mesh: point capacity exhausted");
  }
  points_.push_back(p);
  return static_cast<PointId>(points_.size() - 1);
}

std::size_t Mesh::num_points() const {
  const std::lock_guard lock(arena_);
  return points_.size();
}

TriId Mesh::create_triangle(PointId a, PointId b, PointId c) {
  const std::array<PointId, 3> corners{a, b, c};
  return create_triangles({&corners, 1});
}

TriId Mesh::create_triangles(std::span<const std::array<PointId, 3>> corners) {
  const std::lock_guard lock(arena_);
  if (max_triangles_ != 0 &&
      corners.size() > max_triangles_ - tris_.size()) {
    throw std::length_error("Mesh: triangle capacity exhausted");
  }
  const auto first = static_cast<TriId>(tris_.size());
  for (const auto& v : corners) tris_.push_back({.v = v, .alive = true});
  return first;
}

void Mesh::kill_triangle(TriId t) {
  if (!tris_[t].alive) throw std::logic_error("kill_triangle: already dead");
  tris_[t].alive = false;
}

std::size_t Mesh::num_triangle_slots() const {
  const std::lock_guard lock(arena_);
  return tris_.size();
}

std::size_t Mesh::num_alive_triangles() const {
  const std::lock_guard lock(arena_);
  return static_cast<std::size_t>(
      std::count_if(tris_.begin(), tris_.end(),
                    [](const Triangle& t) { return t.alive; }));
}

void Mesh::set_neighbor(TriId t, int slot, TriId n) {
  tris_[t].nbr[static_cast<std::size_t>(slot)] = n;
}

int Mesh::slot_of_neighbor(TriId t, TriId other) const {
  for (int i = 0; i < 3; ++i) {
    if (tris_[t].nbr[static_cast<std::size_t>(i)] == other) return i;
  }
  return -1;
}

int Mesh::slot_of_vertex(TriId t, PointId p) const {
  for (int i = 0; i < 3; ++i) {
    if (tris_[t].v[static_cast<std::size_t>(i)] == p) return i;
  }
  return -1;
}

bool Mesh::contains(TriId t, const Point2& p) const {
  const Point2& a = corner(t, 0);
  const Point2& b = corner(t, 1);
  const Point2& c = corner(t, 2);
  return orient2d(a, b, p) >= 0 && orient2d(b, c, p) >= 0 &&
         orient2d(c, a, p) >= 0;
}

bool Mesh::in_circumcircle(TriId t, const Point2& p) const {
  return incircle(corner(t, 0), corner(t, 1), corner(t, 2), p) > 0;
}

Point2 Mesh::circumcenter_of(TriId t) const {
  return circumcenter(corner(t, 0), corner(t, 1), corner(t, 2));
}

double Mesh::circumradius_of(TriId t) const {
  return circumradius(corner(t, 0), corner(t, 1), corner(t, 2));
}

double Mesh::shortest_edge_of(TriId t) const {
  return shortest_edge(corner(t, 0), corner(t, 1), corner(t, 2));
}

double Mesh::min_angle_of(TriId t) const {
  return min_angle(corner(t, 0), corner(t, 1), corner(t, 2));
}

std::vector<TriId> Mesh::alive_triangles() const {
  const std::lock_guard lock(arena_);
  std::vector<TriId> out;
  for (TriId t = 0; t < tris_.size(); ++t) {
    if (tris_[t].alive) out.push_back(t);
  }
  return out;
}

TriId Mesh::locate(const Point2& p, TriId hint) const {
  const auto slots = tris_.size();
  if (slots == 0) return kNoNeighbor;
  TriId current = (hint < slots && tris_[hint].alive) ? hint : kNoNeighbor;
  if (current != kNoNeighbor) {
    // Straight walk: cross the first edge that has p strictly outside.
    for (std::size_t steps = 0; steps < slots; ++steps) {
      bool moved = false;
      for (int i = 0; i < 3; ++i) {
        const Point2& a = corner(current, (i + 1) % 3);
        const Point2& b = corner(current, (i + 2) % 3);
        if (orient2d(a, b, p) < 0) {
          const TriId next = tris_[current].nbr[static_cast<std::size_t>(i)];
          if (next == kNoNeighbor || !tris_[next].alive) {
            moved = false;  // walked off the mesh — fall back to scan
            current = kNoNeighbor;
          } else {
            current = next;
            moved = true;
          }
          break;
        }
      }
      if (current == kNoNeighbor) break;
      if (!moved) return current;  // inside all three edges
    }
  }
  // Robust fallback.
  for (TriId t = 0; t < slots; ++t) {
    if (tris_[t].alive && contains(t, p)) return t;
  }
  return kNoNeighbor;
}

bool Mesh::validate() const {
  for (TriId t = 0; t < tris_.size(); ++t) {
    const Triangle& tri = tris_[t];
    if (!tri.alive) continue;
    if (orient2d(points_[tri.v[0]], points_[tri.v[1]], points_[tri.v[2]]) <=
        0) {
      return false;  // degenerate or clockwise
    }
    for (int i = 0; i < 3; ++i) {
      const TriId n = tri.nbr[static_cast<std::size_t>(i)];
      if (n == kNoNeighbor) continue;
      if (n >= tris_.size() || !tris_[n].alive) return false;
      const int back = slot_of_neighbor(n, t);
      if (back < 0) return false;  // asymmetric adjacency
      // The shared edge is {v[(i+1)%3], v[(i+2)%3]} on both sides.
      const PointId e1 = tri.v[static_cast<std::size_t>((i + 1) % 3)];
      const PointId e2 = tri.v[static_cast<std::size_t>((i + 2) % 3)];
      const Triangle& other = tris_[n];
      const PointId f1 = other.v[static_cast<std::size_t>((back + 1) % 3)];
      const PointId f2 = other.v[static_cast<std::size_t>((back + 2) % 3)];
      if (!((e1 == f1 && e2 == f2) || (e1 == f2 && e2 == f1))) return false;
    }
  }
  return true;
}

bool Mesh::is_locally_delaunay(PointId skip_verts_below) const {
  for (TriId t = 0; t < tris_.size(); ++t) {
    const Triangle& tri = tris_[t];
    if (!tri.alive) continue;
    if (tri.v[0] < skip_verts_below || tri.v[1] < skip_verts_below ||
        tri.v[2] < skip_verts_below) {
      continue;
    }
    for (int i = 0; i < 3; ++i) {
      const TriId n = tri.nbr[static_cast<std::size_t>(i)];
      if (n == kNoNeighbor || !tris_[n].alive) continue;
      const Triangle& other = tris_[n];
      if (other.v[0] < skip_verts_below || other.v[1] < skip_verts_below ||
          other.v[2] < skip_verts_below) {
        continue;
      }
      const int back = slot_of_neighbor(n, t);
      if (back < 0) return false;
      const PointId opposite = other.v[static_cast<std::size_t>(back)];
      if (in_circumcircle(t, points_[opposite])) return false;
    }
  }
  return true;
}

}  // namespace optipar::dmr
