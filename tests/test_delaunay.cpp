#include "apps/dmr/delaunay.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "support/rng.hpp"

namespace optipar::dmr {
namespace {

std::vector<Point2> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform() * 100.0, rng.uniform() * 100.0});
  }
  return pts;
}

TEST(BuildDelaunay, RejectsBadInput) {
  Mesh m;
  EXPECT_THROW((void)build_delaunay(m, std::vector<Point2>{}),
               std::invalid_argument);
  Mesh m2;
  m2.add_point({0, 0});
  EXPECT_THROW((void)build_delaunay(m2, random_points(3, 1)),
               std::invalid_argument);  // non-empty mesh
}

TEST(BuildDelaunay, SinglePoint) {
  Mesh m;
  const auto ids = build_delaunay(m, std::vector<Point2>{{5, 5}});
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(m.num_alive_triangles(), 3u);  // super-triangle fanned once
  EXPECT_TRUE(m.validate());
}

class BuildDelaunayTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BuildDelaunayTest, StructureDelaunayAndEuler) {
  const std::size_t n = GetParam();
  Mesh m;
  const auto ids = build_delaunay(m, random_points(n, 42 + n));
  EXPECT_EQ(ids.size(), n);  // random doubles: no duplicates expected
  EXPECT_TRUE(m.validate());
  EXPECT_TRUE(m.is_locally_delaunay());
  // Triangulation of n interior + 3 super vertices where the convex hull
  // is the super-triangle: T = 2·(n+3) − 2 − 3 = 2n + 1.
  EXPECT_EQ(m.num_alive_triangles(), 2 * n + 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BuildDelaunayTest,
                         ::testing::Values(2, 5, 20, 100, 400));

TEST(BuildDelaunay, EveryInputPointIsLocatable) {
  Mesh m;
  const auto pts = random_points(60, 7);
  build_delaunay(m, pts);
  const auto alive = m.alive_triangles();
  ASSERT_FALSE(alive.empty());
  for (const auto& p : pts) {
    EXPECT_NE(m.locate(p, alive.front()), kNoNeighbor);
  }
}

TEST(BuildDelaunay, DuplicatePointsAreSkipped) {
  Mesh m;
  std::vector<Point2> pts = {{1, 1}, {2, 2}, {1, 1}};
  const auto ids = build_delaunay(m, pts);
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_TRUE(m.validate());
  EXPECT_TRUE(m.is_locally_delaunay());
}

TEST(BuildDelaunay, RegularGridPointsSurviveCocircularity) {
  // A k x k lattice is the worst case for the incircle predicate: every
  // unit square's four corners are exactly cocircular. The triangulation
  // must still be structurally valid and locally Delaunay (cocircular
  // neighbors count as Delaunay: the test is strict containment).
  std::vector<Point2> pts;
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      pts.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  Mesh m;
  const auto ids = build_delaunay(m, pts);
  EXPECT_EQ(ids.size(), 64u);
  EXPECT_TRUE(m.validate());
  EXPECT_TRUE(m.is_locally_delaunay());
  EXPECT_EQ(m.num_alive_triangles(), 2 * 64 + 1);
}

TEST(BuildDelaunay, CollinearPointsOnALine) {
  // All points collinear: the triangulation degenerates to fans against
  // the super-triangle; must stay structurally valid.
  std::vector<Point2> pts;
  for (int i = 0; i < 12; ++i) pts.push_back({static_cast<double>(i), 0.0});
  Mesh m;
  const auto ids = build_delaunay(m, pts);
  EXPECT_EQ(ids.size(), 12u);
  EXPECT_TRUE(m.validate());
}

TEST(BuildDelaunay, ClusteredAndFarPointsMix) {
  // A tight cluster plus far outliers stresses the locate walk and the
  // circumcircle radii spread.
  Rng rng(99);
  std::vector<Point2> pts;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({50.0 + rng.uniform() * 0.01, 50.0 + rng.uniform() * 0.01});
  }
  pts.push_back({0.0, 0.0});
  pts.push_back({100.0, 0.0});
  pts.push_back({0.0, 100.0});
  Mesh m;
  build_delaunay(m, pts);
  EXPECT_TRUE(m.validate());
  EXPECT_TRUE(m.is_locally_delaunay());
}

TEST(InsertPoint, DegenerateSeedLeavesMeshUntouched) {
  Mesh m;
  build_delaunay(m, random_points(10, 9));
  const auto before_alive = m.num_alive_triangles();
  const auto before_slots = m.num_triangle_slots();
  // A point far outside every circumcircle of the seed: pick a corner of
  // the super-triangle's neighborhood — use an existing vertex location
  // (collides with a cavity vertex -> rejected).
  const auto alive = m.alive_triangles();
  const TriId seed = alive.front();
  const PointId dup = m.add_point(m.corner(seed, 0));
  const auto res = insert_point(m, dup, seed, nullptr);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(m.num_alive_triangles(), before_alive);
  EXPECT_EQ(m.num_triangle_slots(), before_slots);
  EXPECT_TRUE(m.validate());
}

/// An alive triangle clear of the super-triangle whose circumcenter can
/// seed an insertion; kNoNeighbor if there is none.
TriId interior_seed(const Mesh& m) {
  for (const TriId t : m.alive_triangles()) {
    const auto& tri = m.tri(t);
    if (tri.v[0] >= kNumSuperVertices && tri.v[1] >= kNumSuperVertices &&
        tri.v[2] >= kNumSuperVertices) {
      const Point2 cc = m.circumcenter_of(t);
      if (m.contains(t, cc) || m.in_circumcircle(t, cc)) return t;
    }
  }
  return kNoNeighbor;
}

/// Every triangle slot's corners, links and liveness.
std::vector<std::tuple<std::array<PointId, 3>, std::array<TriId, 3>, bool>>
triangle_slots(const Mesh& m) {
  std::vector<std::tuple<std::array<PointId, 3>, std::array<TriId, 3>, bool>>
      out;
  for (TriId t = 0; t < m.num_triangle_slots(); ++t) {
    out.emplace_back(m.tri(t).v, m.tri(t).nbr, m.tri(t).alive);
  }
  return out;
}

TEST(InsertPoint, HooksSeeEveryTouchAndCreation) {
  Mesh m;
  build_delaunay(m, random_points(40, 11));
  const std::size_t slots_before = m.num_triangle_slots();
  const TriId seed = interior_seed(m);
  ASSERT_NE(seed, kNoNeighbor);

  std::vector<TriId> touched;
  std::vector<TriId> created;
  InsertHooks hooks;
  hooks.touch = [&](TriId t) { touched.push_back(t); };
  hooks.created = [&](TriId t) { created.push_back(t); };

  const PointId p = m.add_point(m.circumcenter_of(seed));
  const auto res = insert_point(m, p, seed, &hooks);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.created, created);
  EXPECT_FALSE(created.empty());
  EXPECT_FALSE(touched.empty());
  EXPECT_EQ(touched.front(), seed);
  // Only pre-existing triangles are touched; the fan is new, consecutive.
  for (const TriId t : touched) EXPECT_LT(t, slots_before);
  for (std::size_t i = 0; i < created.size(); ++i) {
    EXPECT_EQ(created[i], slots_before + i);
  }
  EXPECT_TRUE(m.validate());
  EXPECT_TRUE(m.is_locally_delaunay());
}

TEST(InsertPoint, FullArenaThrowsBeforeTheFirstWrite) {
  // Two identical meshes: the first measures the fan, the second gets an
  // arena one triangle short of it.
  Mesh sized;
  build_delaunay(sized, random_points(40, 11));
  const TriId seed = interior_seed(sized);
  ASSERT_NE(seed, kNoNeighbor);
  const PointId p_sized = sized.add_point(sized.circumcenter_of(seed));
  const std::size_t fan = insert_point(sized, p_sized, seed).created.size();
  ASSERT_GT(fan, 1u);

  Mesh m;
  build_delaunay(m, random_points(40, 11));
  m.reserve(m.num_points() + 1, m.num_triangle_slots() + fan - 1);
  const auto before = triangle_slots(m);
  const PointId p = m.add_point(m.circumcenter_of(seed));
  EXPECT_THROW((void)insert_point(m, p, seed), std::length_error);
  EXPECT_EQ(triangle_slots(m), before);
  EXPECT_TRUE(m.validate());
}

TEST(InsertPoint, SequentialInsertKeepsDelaunayProperty) {
  Mesh m;
  build_delaunay(m, random_points(30, 13));
  Rng rng(14);
  const auto alive = m.alive_triangles();
  TriId hint = alive.front();
  for (int i = 0; i < 20; ++i) {
    const Point2 p{rng.uniform() * 100.0, rng.uniform() * 100.0};
    const TriId container = m.locate(p, hint);
    ASSERT_NE(container, kNoNeighbor);
    const PointId pid = m.add_point(p);
    const auto res = insert_point(m, pid, container, nullptr);
    if (res.ok) hint = res.created.front();
    EXPECT_TRUE(m.validate());
  }
  EXPECT_TRUE(m.is_locally_delaunay());
}

}  // namespace
}  // namespace optipar::dmr
