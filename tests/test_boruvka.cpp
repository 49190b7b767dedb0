#include "apps/boruvka/boruvka.hpp"

#include <gtest/gtest.h>

#include "apps/app_spec.hpp"
#include "control/baselines.hpp"
#include "control/hybrid.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"

namespace optipar::boruvka {
namespace {

std::vector<WeightedEdge> random_weighted_graph(NodeId n,
                                                std::uint64_t edges,
                                                std::uint64_t seed) {
  Rng rng(seed);
  const auto g = gen::gnm_random(n, edges, rng);
  std::vector<WeightedEdge> out;
  for (const auto& [u, v] : g.edges()) {
    out.push_back({u, v, rng.uniform() * 100.0 + 0.001});
  }
  return out;
}

/// Contract the whole graph through its spec; returns the final graph,
/// whose chosen edges are the spanning forest.
ContractionGraph run_boruvka(NodeId n, const std::vector<WeightedEdge>& edges,
                             Controller& controller, ThreadPool& pool,
                             std::uint64_t seed, Trace* trace = nullptr) {
  ContractionGraph graph(n, edges);
  const AppSpec spec = make_spec(graph);
  DrainResult drained =
      drain(*build_executor(pool, spec, seed), spec, controller);
  if (trace != nullptr) *trace = std::move(drained.trace);
  return graph;
}

TEST(Kruskal, KnownTinyGraph) {
  // Square with a diagonal: MST = 1 + 2 + 3.
  std::vector<WeightedEdge> edges = {
      {0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}, {3, 0, 4.0}, {0, 2, 5.0}};
  EXPECT_DOUBLE_EQ(kruskal_mst_weight(4, edges), 6.0);
}

TEST(Kruskal, DisconnectedForest) {
  std::vector<WeightedEdge> edges = {{0, 1, 1.0}, {2, 3, 2.0}};
  EXPECT_DOUBLE_EQ(kruskal_mst_weight(5, edges), 3.0);
}

TEST(ContractionGraph, CollapsesParallelEdgesToLightest) {
  std::vector<WeightedEdge> edges = {{0, 1, 5.0}, {0, 1, 2.0}, {0, 1, 9.0}};
  ContractionGraph g(2, edges);
  const auto best = g.lightest_edge(0);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->w, 2.0);
}

TEST(ContractionGraph, LightestEdgeTieBreaksByNeighborId) {
  std::vector<WeightedEdge> edges = {{0, 2, 1.0}, {0, 1, 1.0}};
  ContractionGraph g(3, edges);
  const auto best = g.lightest_edge(0);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->v, 1u);
}

TEST(ContractionGraph, IsolatedNodeHasNoEdge) {
  ContractionGraph g(3, {});
  EXPECT_FALSE(g.lightest_edge(0).has_value());
}

TEST(ContractionGraph, RejectsBadEdges) {
  EXPECT_THROW((void)ContractionGraph(3, {{0, 0, 1.0}}), std::invalid_argument);
  EXPECT_THROW((void)ContractionGraph(3, {{0, 7, 1.0}}), std::invalid_argument);
}

class BoruvkaAdaptiveTest
    : public ::testing::TestWithParam<std::pair<NodeId, std::uint64_t>> {};

TEST_P(BoruvkaAdaptiveTest, MatchesKruskalWeight) {
  const auto [n, e] = GetParam();
  const auto edges = random_weighted_graph(n, e, 1000 + n);
  const double expected = kruskal_mst_weight(n, edges);

  ThreadPool pool(4);
  ControllerParams p;
  HybridController controller(p);
  Trace trace;
  const auto graph =
      run_boruvka(n, edges, controller, pool, /*seed=*/n * 7 + 1, &trace);

  EXPECT_NEAR(graph.chosen_weight(), expected,
              1e-6 * std::max(1.0, expected));
  EXPECT_GT(trace.total_committed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BoruvkaAdaptiveTest,
                         ::testing::Values(std::pair{20u, 40ULL},
                                           std::pair{50u, 200ULL},
                                           std::pair{100u, 300ULL},
                                           std::pair{200u, 1000ULL}));

TEST(BoruvkaAdaptive, DisconnectedGraphBuildsForest) {
  // Two components: {0,1,2} path and {3,4} edge.
  std::vector<WeightedEdge> edges = {
      {0, 1, 1.0}, {1, 2, 2.0}, {3, 4, 7.0}};
  ThreadPool pool(2);
  ControllerParams p;
  HybridController controller(p);
  const auto graph = run_boruvka(5, edges, controller, pool, 5);
  EXPECT_DOUBLE_EQ(graph.chosen_weight(), 10.0);
  EXPECT_EQ(graph.chosen_count(), 3u);  // n − #components = 5 − 2
}

TEST(BoruvkaAdaptive, EdgelessGraphChoosesNothing) {
  ThreadPool pool(2);
  ControllerParams p;
  HybridController controller(p);
  const auto graph = run_boruvka(6, {}, controller, pool, 6);
  EXPECT_DOUBLE_EQ(graph.chosen_weight(), 0.0);
  EXPECT_EQ(graph.chosen_count(), 0u);
}

TEST(BoruvkaAdaptive, FixedControllerAlsoCorrect) {
  const auto edges = random_weighted_graph(80, 240, 77);
  const double expected = kruskal_mst_weight(80, edges);
  ThreadPool pool(4);
  FixedController controller(16);
  const auto graph = run_boruvka(80, edges, controller, pool, 9);
  EXPECT_NEAR(graph.chosen_weight(), expected, 1e-6 * expected);
}

TEST(BoruvkaAdaptive, EdgesChosenEqualsNodesMinusComponents) {
  const auto edges = random_weighted_graph(60, 120, 88);
  // Count components via Kruskal's union-find side effect: recompute here.
  ThreadPool pool(2);
  ControllerParams p;
  HybridController controller(p);
  const auto graph = run_boruvka(60, edges, controller, pool, 10);
  // Derive component count from edges with a fresh union-find.
  UnionFind uf(60);
  for (const auto& e : edges) uf.unite(e.u, e.v);
  EXPECT_EQ(graph.chosen_count(), 60u - uf.num_sets());
}

}  // namespace
}  // namespace optipar::boruvka
