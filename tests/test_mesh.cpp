#include "apps/dmr/mesh.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <vector>

namespace optipar::dmr {
namespace {

/// Two CCW triangles sharing the edge (1, 2):
///   t0 = (0, 1, 2), t1 = (1, 3, 2) with points forming a unit square.
struct TwoTriangleMesh {
  Mesh mesh;
  TriId t0, t1;

  TwoTriangleMesh() {
    mesh.add_point({0, 0});  // 0
    mesh.add_point({1, 0});  // 1
    mesh.add_point({0, 1});  // 2
    mesh.add_point({1, 1});  // 3
    t0 = mesh.create_triangle(0, 1, 2);
    t1 = mesh.create_triangle(1, 3, 2);
    // Shared edge (1,2): opposite vertex 0 in t0 (slot 0) and 3 in t1
    // (slot 1).
    mesh.set_neighbor(t0, 0, t1);
    mesh.set_neighbor(t1, 1, t0);
  }
};

TEST(Mesh, PointAndTriangleBookkeeping) {
  TwoTriangleMesh f;
  EXPECT_EQ(f.mesh.num_points(), 4u);
  EXPECT_EQ(f.mesh.num_triangle_slots(), 2u);
  EXPECT_EQ(f.mesh.num_alive_triangles(), 2u);
  EXPECT_TRUE(f.mesh.is_alive(f.t0));
  EXPECT_EQ(f.mesh.tri(f.t0).v[0], 0u);
}

TEST(Mesh, ValidatesConsistentAdjacency) {
  TwoTriangleMesh f;
  EXPECT_TRUE(f.mesh.validate());
}

TEST(Mesh, DetectsAsymmetricAdjacency) {
  TwoTriangleMesh f;
  f.mesh.set_neighbor(f.t1, 1, kNoNeighbor);  // break the back-link
  EXPECT_FALSE(f.mesh.validate());
}

TEST(Mesh, DetectsClockwiseTriangle) {
  Mesh m;
  m.add_point({0, 0});
  m.add_point({1, 0});
  m.add_point({0, 1});
  m.create_triangle(0, 2, 1);  // CW
  EXPECT_FALSE(m.validate());
}

TEST(Mesh, KillMarksDeadOnce) {
  TwoTriangleMesh f;
  f.mesh.kill_triangle(f.t1);
  EXPECT_FALSE(f.mesh.is_alive(f.t1));
  EXPECT_EQ(f.mesh.num_alive_triangles(), 1u);
  EXPECT_EQ(f.mesh.num_triangle_slots(), 2u);  // slots are never reused
  EXPECT_THROW((void)f.mesh.kill_triangle(f.t1), std::logic_error);
}

TEST(Mesh, CreateTrianglesAllocatesAllOrNone) {
  Mesh m;
  m.reserve(4, 4);
  for (const Point2 p : {Point2{0, 0}, Point2{1, 0}, Point2{0, 1},
                         Point2{1, 1}}) {
    m.add_point(p);
  }
  EXPECT_EQ(m.create_triangle(0, 1, 2), 0u);
  const std::vector<std::array<PointId, 3>> pair{{1, 3, 2}, {0, 1, 3}};
  EXPECT_EQ(m.create_triangles(pair), 1u);  // ids 1 and 2, consecutive
  EXPECT_EQ(m.tri(2).v, (std::array<PointId, 3>{0, 1, 3}));
  EXPECT_TRUE(m.is_alive(2));
  // Two more do not fit in the one remaining slot: none is allocated.
  EXPECT_THROW((void)m.create_triangles(pair), std::length_error);
  EXPECT_EQ(m.num_triangle_slots(), 3u);
  EXPECT_EQ(m.create_triangle(1, 3, 2), 3u);
}

TEST(Mesh, SlotLookups) {
  TwoTriangleMesh f;
  EXPECT_EQ(f.mesh.slot_of_neighbor(f.t0, f.t1), 0);
  EXPECT_EQ(f.mesh.slot_of_neighbor(f.t1, f.t0), 1);
  EXPECT_EQ(f.mesh.slot_of_neighbor(f.t0, 999), -1);
  EXPECT_EQ(f.mesh.slot_of_vertex(f.t0, 1), 1);
  EXPECT_EQ(f.mesh.slot_of_vertex(f.t0, 3), -1);
}

TEST(Mesh, ContainsIsEdgeInclusive) {
  TwoTriangleMesh f;
  EXPECT_TRUE(f.mesh.contains(f.t0, {0.2, 0.2}));
  EXPECT_FALSE(f.mesh.contains(f.t0, {0.9, 0.9}));
  EXPECT_TRUE(f.mesh.contains(f.t0, {0.5, 0.5}));  // on the shared edge
  EXPECT_TRUE(f.mesh.contains(f.t1, {0.5, 0.5}));
}

TEST(Mesh, LocateByWalkAndFallback) {
  TwoTriangleMesh f;
  EXPECT_EQ(f.mesh.locate({0.1, 0.1}, f.t1), f.t0);  // walks across
  EXPECT_EQ(f.mesh.locate({0.9, 0.9}, f.t0), f.t1);
  EXPECT_EQ(f.mesh.locate({5, 5}, f.t0), kNoNeighbor);  // outside
}

TEST(Mesh, LocateWithDeadHintStillWorks) {
  TwoTriangleMesh f;
  f.mesh.kill_triangle(f.t0);
  EXPECT_EQ(f.mesh.locate({0.9, 0.9}, f.t0), f.t1);
}

TEST(Mesh, GeometryShortcuts) {
  TwoTriangleMesh f;
  EXPECT_DOUBLE_EQ(f.mesh.shortest_edge_of(f.t0), 1.0);
  EXPECT_GT(f.mesh.min_angle_of(f.t0), 0.7);  // 45° ≈ 0.785
  const Point2 cc = f.mesh.circumcenter_of(f.t0);
  EXPECT_NEAR(cc.x, 0.5, 1e-12);
  EXPECT_NEAR(cc.y, 0.5, 1e-12);
  EXPECT_TRUE(f.mesh.in_circumcircle(f.t0, {0.5, 0.4}));
  EXPECT_FALSE(f.mesh.in_circumcircle(f.t0, {2, 2}));
}

TEST(Mesh, AliveTrianglesList) {
  TwoTriangleMesh f;
  f.mesh.kill_triangle(f.t0);
  EXPECT_EQ(f.mesh.alive_triangles(), std::vector<TriId>{f.t1});
}

TEST(Mesh, LocallyDelaunayOnSquare) {
  // The square split along (1,2): each opposite vertex lies exactly ON the
  // other triangle's circumcircle (cocircular) — not strictly inside — so
  // the configuration is locally Delaunay.
  TwoTriangleMesh f;
  EXPECT_TRUE(f.mesh.is_locally_delaunay());
}

TEST(Mesh, DetectsNonDelaunayConfiguration) {
  Mesh m;
  m.add_point({0, 0});    // 0
  m.add_point({1, 0});    // 1
  m.add_point({0, 1});    // 2
  m.add_point({0.9, 0.9});  // 3 — inside circumcircle of (0,1,2)
  const TriId t0 = m.create_triangle(0, 1, 2);
  const TriId t1 = m.create_triangle(1, 3, 2);
  m.set_neighbor(t0, 0, t1);
  m.set_neighbor(t1, 1, t0);
  EXPECT_TRUE(m.validate());
  EXPECT_FALSE(m.is_locally_delaunay());
}

TEST(Mesh, ReserveEnforcesCapacity) {
  Mesh m;
  m.reserve(2, 1);
  m.add_point({0, 0});
  m.add_point({1, 0});
  EXPECT_THROW((void)m.add_point({2, 0}), std::length_error);
  EXPECT_THROW((void)m.reserve(1, 1), std::length_error);  // below current size
}

}  // namespace
}  // namespace optipar::dmr
