// CC-graph extraction from real applications: graph squares (MIS/coloring
// lock footprints) and DMR cavity footprints.
#include <gtest/gtest.h>

#include "apps/app_spec.hpp"
#include "apps/dmr/refine.hpp"
#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "model/conflict_ratio.hpp"

namespace optipar {
namespace {

TEST(Square, PathBecomesDistanceTwoGraph) {
  const auto sq = square(gen::path(6));
  EXPECT_TRUE(sq.has_edge(0, 1));
  EXPECT_TRUE(sq.has_edge(0, 2));
  EXPECT_FALSE(sq.has_edge(0, 3));
  EXPECT_EQ(sq.num_edges(), 5u + 4u);  // distance-1 plus distance-2 pairs
  EXPECT_TRUE(sq.validate());
}

TEST(Square, StarBecomesComplete) {
  const auto sq = square(gen::star(7));
  EXPECT_EQ(sq.num_edges(), 8u * 7u / 2u);  // K_8
}

TEST(Square, EdgelessStaysEdgeless) {
  const auto sq = square(CsrGraph::from_edges(5, {}));
  EXPECT_EQ(sq.num_edges(), 0u);
}

TEST(Square, ContainsOriginalAndIsSane) {
  Rng rng(3);
  const auto g = gen::gnm_random(100, 250, rng);
  const auto sq = square(g);
  EXPECT_TRUE(sq.validate());
  for (const auto& [u, v] : g.edges()) EXPECT_TRUE(sq.has_edge(u, v));
  EXPECT_GE(sq.num_edges(), g.num_edges());
}

class DmrFootprintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    for (int i = 0; i < 80; ++i) {
      pts_.push_back({rng.uniform() * 100.0, rng.uniform() * 100.0});
    }
    dmr::build_delaunay(mesh_, pts_);
    quality_.min_angle_deg = 25.0;
    quality_.min_edge = 3.0;
    quality_.set_domain(pts_);
  }

  std::vector<dmr::Point2> pts_;
  dmr::Mesh mesh_;
  dmr::RefineQuality quality_;
};

TEST_F(DmrFootprintTest, ProbeCavityIsReadOnlyAndSane) {
  const auto bad = dmr::bad_triangles(mesh_, quality_);
  ASSERT_FALSE(bad.empty());
  const auto slots_before = mesh_.num_triangle_slots();
  const auto alive_before = mesh_.num_alive_triangles();

  const dmr::TriId t = bad.front();
  const auto fp = dmr::probe_cavity(mesh_, mesh_.circumcenter_of(t), t);
  EXPECT_EQ(mesh_.num_triangle_slots(), slots_before);
  EXPECT_EQ(mesh_.num_alive_triangles(), alive_before);

  // The seed is in its own cavity; cavity and ring are disjoint and alive.
  EXPECT_NE(std::find(fp.cavity.begin(), fp.cavity.end(), t),
            fp.cavity.end());
  for (const auto tri : fp.cavity) {
    EXPECT_TRUE(mesh_.is_alive(tri));
    EXPECT_EQ(std::find(fp.ring.begin(), fp.ring.end(), tri),
              fp.ring.end());
  }
  // Every ring triangle borders some cavity triangle.
  for (const auto tri : fp.ring) {
    bool adjacent = false;
    for (const auto c : fp.cavity) {
      if (mesh_.slot_of_neighbor(tri, c) >= 0) adjacent = true;
    }
    EXPECT_TRUE(adjacent);
  }
}

TEST_F(DmrFootprintTest, ProbeWithBadSeedIsEmpty) {
  // A point far outside every circumcircle of the seed.
  const auto bad = dmr::bad_triangles(mesh_, quality_);
  ASSERT_FALSE(bad.empty());
  const auto fp =
      dmr::probe_cavity(mesh_, {1e9, 1e9}, bad.front());
  EXPECT_TRUE(fp.cavity.empty());
  EXPECT_TRUE(fp.ring.empty());
}

TEST_F(DmrFootprintTest, ProbeAgreesWithInsertPoint) {
  // The read-only footprint must be exactly the cavity a real insertion
  // carves: same cavity set (the triangles killed) and one new triangle
  // per boundary edge.
  const auto bad = dmr::bad_triangles(mesh_, quality_);
  ASSERT_FALSE(bad.empty());
  const dmr::TriId t = bad.front();
  const auto center = mesh_.circumcenter_of(t);
  if (!quality_.in_domain(center)) GTEST_SKIP() << "circumcenter outside";
  const auto fp = dmr::probe_cavity(mesh_, center, t);
  ASSERT_FALSE(fp.cavity.empty());

  const auto pid = mesh_.add_point(center);
  const auto res = dmr::insert_point(mesh_, pid, t);
  ASSERT_TRUE(res.ok);
  // Every probed cavity triangle is now dead; every ring triangle alive.
  for (const auto tri : fp.cavity) EXPECT_FALSE(mesh_.is_alive(tri));
  for (const auto tri : fp.ring) EXPECT_TRUE(mesh_.is_alive(tri));
  EXPECT_TRUE(mesh_.validate());
}

TEST_F(DmrFootprintTest, ConflictGraphShapeMatchesWorkset) {
  const auto bad = dmr::bad_triangles(mesh_, quality_);
  const auto cc = dmr::refinement_conflict_graph(mesh_, quality_, bad);
  EXPECT_EQ(cc.num_nodes(), bad.size());
  EXPECT_TRUE(cc.validate());
}

TEST_F(DmrFootprintTest, AdjacentBadTrianglesConflict) {
  // Any two bad triangles that are mesh neighbors lock each other's
  // target, so they must be adjacent in the conflict graph.
  const auto bad = dmr::bad_triangles(mesh_, quality_);
  const auto cc = dmr::refinement_conflict_graph(mesh_, quality_, bad);
  for (NodeId i = 0; i < bad.size(); ++i) {
    for (NodeId j = i + 1; j < bad.size(); ++j) {
      if (mesh_.slot_of_neighbor(bad[i], bad[j]) >= 0) {
        EXPECT_TRUE(cc.has_edge(i, j))
            << "neighbors " << bad[i] << "," << bad[j];
      }
    }
  }
}

TEST_F(DmrFootprintTest, ModelPredictsRuntimeOrderOfMagnitude) {
  // Small-scale version of bench/model_vs_runtime: the CC-graph prediction
  // and one real speculative round agree within wide MC tolerance.
  const auto bad = dmr::bad_triangles(mesh_, quality_);
  const auto cc = dmr::refinement_conflict_graph(mesh_, quality_, bad);
  if (cc.num_nodes() < 8) GTEST_SKIP() << "work-set too small";
  Rng rng(13);
  const auto predicted = estimate_conflict_curve(cc, 400, rng);
  const auto m = cc.num_nodes() / 2;

  StreamingStats observed;
  for (int rep = 0; rep < 20; ++rep) {
    dmr::Mesh mesh;
    dmr::build_delaunay(mesh, pts_);
    ThreadPool pool(2);
    const auto ex = build_executor(pool, dmr::make_spec(mesh, quality_),
                                   100 + static_cast<std::uint64_t>(rep));
    observed.add(ex->run_round(m).conflict_ratio());
  }
  EXPECT_NEAR(observed.mean(), predicted.r_bar(m),
              0.12 + 3 * observed.ci95());
}

}  // namespace
}  // namespace optipar
