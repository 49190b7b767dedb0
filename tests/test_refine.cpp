#include "apps/dmr/refine.hpp"

#include <gtest/gtest.h>

#include "apps/app_spec.hpp"
#include "control/hybrid.hpp"
#include "control/baselines.hpp"
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

RefineQuality quality() {
  RefineQuality q;
  q.min_angle_deg = 25.0;
  // Size floor chosen so test meshes stay at a few hundred triangles
  // (refinement drives toward uniform ~min_edge density over the domain).
  q.min_edge = 4.0;
  // All tests generate points in [0, 100)²; bound the refinement there.
  q.domain_lo_x = q.domain_lo_y = 0.0;
  q.domain_hi_x = q.domain_hi_y = 100.0;
  return q;
}

TEST(IsBad, SuperTrianglesAreNeverBad) {
  Mesh m;
  build_delaunay(m, random_points(5, 1));
  const auto q = quality();
  for (const TriId t : m.alive_triangles()) {
    const auto& tri = m.tri(t);
    const bool touches_super = tri.v[0] < kNumSuperVertices ||
                               tri.v[1] < kNumSuperVertices ||
                               tri.v[2] < kNumSuperVertices;
    if (touches_super) {
      EXPECT_FALSE(is_bad(m, t, q));
    }
  }
}

TEST(IsBad, SizeFloorSuppressesTinyTriangles) {
  Mesh m;
  build_delaunay(m, random_points(30, 2));
  RefineQuality strict;
  strict.min_angle_deg = 60.0;  // everything is "bad" by angle...
  strict.min_edge = 1e9;        // ...but the floor vetoes all of it
  EXPECT_TRUE(bad_triangles(m, strict).empty());
}

TEST(RefineSequential, EliminatesAllBadTriangles) {
  Mesh m;
  build_delaunay(m, random_points(60, 3));
  const auto q = quality();
  const auto initially_bad = bad_triangles(m, q).size();
  ASSERT_GT(initially_bad, 0u);  // random clouds always have slivers
  const auto insertions = refine_sequential(m, q);
  EXPECT_GT(insertions, 0u);
  EXPECT_TRUE(bad_triangles(m, q).empty());
  EXPECT_TRUE(m.validate());
  EXPECT_TRUE(m.is_locally_delaunay());
}

TEST(RefineSequential, RespectsInsertionCap) {
  Mesh m;
  build_delaunay(m, random_points(60, 4));
  const auto insertions = refine_sequential(m, quality(), 5);
  EXPECT_LE(insertions, 5u);
  EXPECT_TRUE(m.validate());
}

TEST(RefineSequential, ImprovesMinimumAngle) {
  Mesh m;
  build_delaunay(m, random_points(80, 5));
  const auto q = quality();
  refine_sequential(m, q);
  // All refinable triangles now meet the angle target.
  const double threshold = q.min_angle_deg * 3.14159265 / 180.0;
  for (const TriId t : m.alive_triangles()) {
    const auto& tri = m.tri(t);
    const bool interior = tri.v[0] >= kNumSuperVertices &&
                          tri.v[1] >= kNumSuperVertices &&
                          tri.v[2] >= kNumSuperVertices;
    if (interior && m.shortest_edge_of(t) >= q.min_edge) {
      EXPECT_GE(m.min_angle_of(t), threshold * 0.999);
    }
  }
}

TEST(RefineOne, NoOpOnGoodTriangle) {
  Mesh m;
  build_delaunay(m, random_points(40, 6));
  const auto q = quality();
  TriId good = kNoNeighbor;
  for (const TriId t : m.alive_triangles()) {
    if (!is_bad(m, t, q)) {
      good = t;
      break;
    }
  }
  ASSERT_NE(good, kNoNeighbor);
  const auto slots_before = m.num_triangle_slots();
  EXPECT_TRUE(refine_one(m, good, q).empty());
  EXPECT_EQ(m.num_triangle_slots(), slots_before);
}

class RefineAdaptiveTest : public ::testing::TestWithParam<double> {};

TEST_P(RefineAdaptiveTest, SpeculativeRefinementConvergesLikeSequential) {
  const double rho = GetParam();
  Mesh m;
  build_delaunay(m, random_points(80, 7));
  const auto q = quality();

  ThreadPool pool(4);
  ControllerParams p;
  p.rho = rho;
  HybridController controller(p);
  const AppSpec spec = make_spec(m, q);
  const auto trace =
      drain(*build_executor(pool, spec, /*seed=*/99), spec, controller).trace;

  EXPECT_TRUE(bad_triangles(m, q).empty());
  EXPECT_TRUE(m.validate());
  EXPECT_TRUE(m.is_locally_delaunay());
  EXPECT_GT(trace.total_committed(), 0u);
  // Every launched task either committed or aborted.
  for (const auto& s : trace.steps) {
    EXPECT_EQ(s.launched, s.committed + s.aborted);
  }
}

INSTANTIATE_TEST_SUITE_P(Rho, RefineAdaptiveTest,
                         ::testing::Values(0.15, 0.25, 0.35));

TEST(RefineAdaptive, FixedAllocationAlsoCompletes) {
  Mesh m;
  build_delaunay(m, random_points(60, 8));
  const auto q = quality();
  ThreadPool pool(4);
  FixedController controller(8);
  const AppSpec spec = make_spec(m, q);
  (void)drain(*build_executor(pool, spec, 123), spec, controller);
  EXPECT_TRUE(bad_triangles(m, q).empty());
  EXPECT_TRUE(m.validate());
}

TEST(RefineAdaptive, SameMeshStatisticsAsSequentialReference) {
  // Speculative and sequential refinement take different insertion orders,
  // so meshes differ — but both must (a) clear all bad triangles and
  // (b) end up with comparable triangle counts (same workload scale).
  const auto pts = random_points(70, 9);
  const auto q = quality();

  Mesh seq;
  build_delaunay(seq, pts);
  refine_sequential(seq, q);

  Mesh speculative;
  build_delaunay(speculative, pts);
  ThreadPool pool(4);
  ControllerParams p;
  HybridController controller(p);
  const AppSpec spec = make_spec(speculative, q);
  (void)drain(*build_executor(pool, spec, 321), spec, controller);

  EXPECT_TRUE(bad_triangles(seq, q).empty());
  EXPECT_TRUE(bad_triangles(speculative, q).empty());
  const double seq_count = static_cast<double>(seq.num_alive_triangles());
  const double spec_count =
      static_cast<double>(speculative.num_alive_triangles());
  EXPECT_LT(std::abs(seq_count - spec_count) / seq_count, 0.35);
}

}  // namespace
}  // namespace optipar::dmr
