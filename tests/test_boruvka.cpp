#include "apps/boruvka/boruvka.hpp"

#include <gtest/gtest.h>

#include <algorithm>

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

/// What the rule-checking wrapper saw over one drain.
struct RuleLog {
  std::uint32_t v_died = 0;           // committed merges that removed v
  std::uint32_t u_died = 0;           // committed merges that removed u
  std::uint32_t wrong_direction = 0;  // merges that removed the larger side
  std::vector<std::uint32_t> dead_commits;  // per node: commits while dead
};

/// Contract the whole graph through its spec, with the operator wrapped to
/// check both contraction rules. Before each call on a live, non-isolated
/// v it reads |adj v| and |adj u|; that read is race-free only because the
/// pool has one lane. After each committed call it checks that the side
/// with fewer entries died (v on a tie), and counts, per node, committed
/// calls on a node that was already dead.
RuleLog run_checked(NodeId n, const std::vector<WeightedEdge>& edges,
                    Controller& controller, std::uint64_t seed) {
  ThreadPool pool(1);
  ContractionGraph graph(n, edges);
  RuleLog log;
  log.dead_commits.assign(n, 0);
  AppSpec spec = make_spec(graph);
  spec.op = [&graph, &log, op = spec.op](TaskId t, IterationContext& ctx) {
    const auto v = static_cast<NodeId>(t);
    const bool was_alive = graph.is_alive(v);
    const auto best = was_alive ? graph.lightest_edge(v) : std::nullopt;
    const std::size_t size_v = graph.adjacency(v).size();
    const std::size_t size_u =
        best.has_value() ? graph.adjacency(best->v).size() : 0;
    op(t, ctx);
    if (ctx.doomed()) return;  // one lane: aborted iff doomed
    if (!was_alive) {
      ++log.dead_commits[v];
      return;
    }
    if (!best.has_value()) return;
    const bool v_should_die = size_v <= size_u;
    const bool v_alive = graph.is_alive(v);
    const bool u_alive = graph.is_alive(best->v);
    if (v_alive == u_alive || v_alive == v_should_die) ++log.wrong_direction;
    ++(v_alive ? log.u_died : log.v_died);
  };
  (void)drain(*build_executor(pool, spec, seed), spec, controller);
  EXPECT_NEAR(graph.chosen_weight(), kruskal_mst_weight(n, edges),
              1e-9 * std::max(1.0, kruskal_mst_weight(n, edges)));
  return log;
}

/// Hub 0 joined to 64 leaves by distinct weights, not in id order.
std::vector<WeightedEdge> star_65() {
  std::vector<WeightedEdge> edges;
  for (NodeId leaf = 1; leaf <= 64; ++leaf) {
    edges.push_back({0, leaf, static_cast<double>((leaf * 37) % 64 + 1)});
  }
  return edges;
}

std::uint32_t max_dead_commits(const RuleLog& log) {
  return *std::max_element(log.dead_commits.begin(), log.dead_commits.end());
}

TEST(BoruvkaRules, SmallerSupernodeDiesIntoLarger) {
  const auto gnm = random_weighted_graph(300, 1200, 41);
  ControllerParams p;
  HybridController hybrid(p);
  const RuleLog on_gnm = run_checked(300, gnm, hybrid, 3);
  EXPECT_EQ(on_gnm.wrong_direction, 0u);
  EXPECT_GT(on_gnm.u_died, 0u);
  EXPECT_GT(on_gnm.v_died, 0u);

  FixedController fixed(8);
  const RuleLog on_star = run_checked(65, star_65(), fixed, 1);
  EXPECT_EQ(on_star.wrong_direction, 0u);
  EXPECT_EQ(on_star.u_died + on_star.v_died, 64u);
  EXPECT_GT(on_star.u_died, 0u);  // the hub's own task absorbs leaves
}

TEST(BoruvkaRules, DeadNodeRunsAtMostOnce) {
  // Every live node keeps exactly one task pending or running, so a node
  // absorbed as u is called at most once more, as a dead no-op.
  for (const std::uint32_t m : {1u, 8u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      FixedController fixed(m);
      EXPECT_LE(max_dead_commits(run_checked(65, star_65(), fixed, seed)), 1u)
          << "star, m = " << m << ", seed " << seed;
    }
  }
  ControllerParams p;
  HybridController hybrid(p);
  const auto gnm = random_weighted_graph(300, 1200, 42);
  EXPECT_LE(max_dead_commits(run_checked(300, gnm, hybrid, 4)), 1u);
}

}  // namespace
}  // namespace optipar::boruvka
