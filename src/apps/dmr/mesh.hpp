// Triangle mesh with neighbor adjacency — the shared data structure the
// Delaunay refinement application mutates speculatively. Triangle slots are
// append-only (killed, never reused), so a triangle id can serve directly
// as the abstract-lock item id for the speculative runtime. The point and
// triangle arenas grow under a mutex; all other state is guarded by the
// runtime's item locks.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "apps/dmr/geometry.hpp"

namespace optipar::dmr {

using TriId = std::uint32_t;
using PointId = std::uint32_t;

inline constexpr TriId kNoNeighbor = UINT32_MAX;

struct Triangle {
  std::array<PointId, 3> v{};    ///< CCW vertex ids
  std::array<TriId, 3> nbr{kNoNeighbor, kNoNeighbor, kNoNeighbor};
  ///< nbr[i] is across the edge opposite v[i]
  bool alive = false;
};

class Mesh {
 public:
  Mesh() = default;

  /// Fix the arena capacities BEFORE any speculative execution. Growth
  /// never reallocates past these bounds, which is what makes lock-free
  /// concurrent reads of points/triangles safe while other iterations
  /// append (a reallocation would invalidate concurrent readers).
  /// Exceeding a capacity throws std::length_error.
  void reserve(std::size_t max_points, std::size_t max_triangles);

  // ----- points ------------------------------------------------------
  /// Append a point (thread-safe); points are immutable once added.
  PointId add_point(const Point2& p);
  [[nodiscard]] const Point2& point(PointId i) const { return points_[i]; }
  [[nodiscard]] std::size_t num_points() const;

  // ----- triangles ---------------------------------------------------
  /// Allocate an alive triangle (thread-safe). Vertices must be CCW.
  TriId create_triangle(PointId a, PointId b, PointId c);
  /// Allocate one alive triangle per corner triple in one arena call
  /// (thread-safe) and return the first id; the rest follow it. Throws
  /// std::length_error, allocating none, when they do not all fit.
  TriId create_triangles(std::span<const std::array<PointId, 3>> corners);
  /// Mark dead. Slots are never reused, so the id stays a valid lock item.
  void kill_triangle(TriId t);

  [[nodiscard]] bool is_alive(TriId t) const { return tris_[t].alive; }
  [[nodiscard]] const Triangle& tri(TriId t) const { return tris_[t]; }
  /// Triangle slots allocated so far (alive + dead); also the size the
  /// executor's lock table must cover.
  [[nodiscard]] std::size_t num_triangle_slots() const;
  [[nodiscard]] std::size_t num_alive_triangles() const;

  /// Set t's neighbor across the edge opposite vertex slot `slot`.
  void set_neighbor(TriId t, int slot, TriId n);
  [[nodiscard]] TriId neighbor(TriId t, int slot) const {
    return tris_[t].nbr[slot];
  }
  /// Slot (0-2) of `t` whose opposite edge borders `other`; -1 if none.
  [[nodiscard]] int slot_of_neighbor(TriId t, TriId other) const;
  /// Slot of vertex p within t; -1 if absent.
  [[nodiscard]] int slot_of_vertex(TriId t, PointId p) const;

  // ----- geometry shortcuts -------------------------------------------
  [[nodiscard]] const Point2& corner(TriId t, int slot) const {
    return points_[tris_[t].v[slot]];
  }
  [[nodiscard]] bool contains(TriId t, const Point2& p) const;
  [[nodiscard]] bool in_circumcircle(TriId t, const Point2& p) const;
  [[nodiscard]] Point2 circumcenter_of(TriId t) const;
  [[nodiscard]] double circumradius_of(TriId t) const;
  [[nodiscard]] double shortest_edge_of(TriId t) const;
  [[nodiscard]] double min_angle_of(TriId t) const;

  /// All alive triangle ids.
  [[nodiscard]] std::vector<TriId> alive_triangles() const;

  /// Point-location by straight walk from `hint`, falling back to a linear
  /// scan for robustness. Returns the alive triangle containing p (edges
  /// inclusive); kNoNeighbor if p is outside every alive triangle.
  [[nodiscard]] TriId locate(const Point2& p, TriId hint) const;

  /// Structural invariants: alive triangles are CCW, neighbor links are
  /// symmetric, and neighboring triangles share exactly the two vertices
  /// of the common edge.
  [[nodiscard]] bool validate() const;

  /// Local Delaunay property: for every alive triangle and every neighbor,
  /// the neighbor's opposite vertex is not strictly inside the triangle's
  /// circumcircle. Triangles with a vertex in `skip_verts` (e.g. the
  /// bounding super-triangle corners) are ignored.
  [[nodiscard]] bool is_locally_delaunay(PointId skip_verts_below = 0) const;

 private:
  mutable std::mutex arena_;  // guards growth of points_ / tris_ (CP.50)
  std::vector<Point2> points_;
  std::vector<Triangle> tris_;
  std::size_t max_points_ = 0;     // 0 = unreserved (sequential use only)
  std::size_t max_triangles_ = 0;
};

}  // namespace optipar::dmr
