#include <gtest/gtest.h>

#include "apps/app_spec.hpp"
#include "apps/maxflow/maxflow.hpp"
#include "apps/sssp/sssp.hpp"
#include "control/baselines.hpp"
#include "control/hybrid.hpp"
#include "graph/generators.hpp"

namespace optipar {
namespace {

// ------------------------------------------------------- weighted graph

TEST(WeightedGraph, BuildAndAccess) {
  std::vector<WeightedEdgeTriple> edges = {{0, 1, 2.5}, {1, 2, 1.0}};
  const auto g = WeightedGraph::from_edges(3, edges);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.arcs(0).size(), 1u);
  EXPECT_EQ(g.arcs(0)[0].to, 1u);
  EXPECT_DOUBLE_EQ(g.arcs(0)[0].weight, 2.5);
}

TEST(WeightedGraph, DuplicatesKeepLightest) {
  std::vector<WeightedEdgeTriple> edges = {{0, 1, 5.0}, {1, 0, 2.0}};
  const auto g = WeightedGraph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.arcs(0)[0].weight, 2.0);
}

TEST(WeightedGraph, RejectsBadInput) {
  EXPECT_THROW((void)WeightedGraph::from_edges(2, {{0, 0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)WeightedGraph::from_edges(2, {{0, 5, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)WeightedGraph::from_edges(
                   2, {{0, 1, std::numeric_limits<double>::infinity()}}),
               std::invalid_argument);
}

TEST(WeightedGraph, StructureMatches) {
  std::vector<WeightedEdgeTriple> edges = {{0, 1, 1.0}, {1, 2, 2.0}};
  const auto g = WeightedGraph::from_edges(4, edges);
  const auto s = g.structure();
  EXPECT_EQ(s.num_nodes(), 4u);
  EXPECT_TRUE(s.has_edge(0, 1));
  EXPECT_TRUE(s.has_edge(1, 2));
  EXPECT_FALSE(s.has_edge(0, 2));
}

// ----------------------------------------------------------------- sssp

WeightedGraph random_weighted(NodeId n, double degree, std::uint64_t seed) {
  Rng rng(seed);
  const auto skeleton = gen::random_with_average_degree(n, degree, rng);
  std::vector<WeightedEdgeTriple> edges;
  for (const auto& [u, v] : skeleton.edges()) {
    edges.push_back({u, v, rng.uniform() * 10.0 + 0.01});
  }
  return WeightedGraph::from_edges(n, edges);
}

TEST(Dijkstra, TinyKnownGraph) {
  std::vector<WeightedEdgeTriple> edges = {
      {0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 5.0}, {2, 3, 1.0}};
  const auto g = WeightedGraph::from_edges(5, edges);
  const auto dist = sssp::dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dist[2], 2.0);
  EXPECT_DOUBLE_EQ(dist[3], 3.0);
  EXPECT_EQ(dist[4], sssp::kUnreachable);
}

TEST(Dijkstra, RejectsBadInput) {
  const auto g = WeightedGraph::from_edges(2, {{0, 1, 1.0}});
  EXPECT_THROW((void)sssp::dijkstra(g, 5), std::invalid_argument);
  const auto neg = WeightedGraph::from_edges(2, {{0, 1, -1.0}});
  EXPECT_THROW((void)sssp::dijkstra(neg, 0), std::invalid_argument);
}

/// Relax from `source` alone (the initial work-set is the source) under
/// `worklist`; returns the distances, and the trace through `trace`.
std::vector<double> run_sssp(const WeightedGraph& g, NodeId source,
                             Controller& controller, ThreadPool& pool,
                             std::uint64_t seed,
                             WorklistPolicy worklist = WorklistPolicy::kRandom,
                             Trace* trace = nullptr) {
  sssp::DistanceTable dist(g.num_nodes(), source);
  AppSpec spec = sssp::make_spec(g, dist);
  spec.initial = {source};
  spec.priority = sssp::distance_priority(dist);
  const auto ex =
      build_executor(pool, spec, seed, RoundOptions{.worklist = worklist});
  DrainResult drained = drain(*ex, spec, controller);
  if (trace != nullptr) *trace = std::move(drained.trace);
  return dist.all();
}

class SsspAdaptiveTest : public ::testing::TestWithParam<NodeId> {};

TEST_P(SsspAdaptiveTest, MatchesDijkstraExactly) {
  const NodeId n = GetParam();
  const auto g = random_weighted(n, 6.0, 100 + n);
  const auto reference = sssp::dijkstra(g, 0);

  ThreadPool pool(4);
  ControllerParams p;
  HybridController controller(p);
  const auto dist = run_sssp(g, 0, controller, pool, n + 1);
  ASSERT_EQ(dist.size(), reference.size());
  for (NodeId v = 0; v < n; ++v) {
    if (reference[v] == sssp::kUnreachable) {
      EXPECT_EQ(dist[v], sssp::kUnreachable) << "v=" << v;
    } else {
      EXPECT_NEAR(dist[v], reference[v], 1e-9) << "v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SsspAdaptiveTest,
                         ::testing::Values(20u, 100u, 400u));

TEST(SsspAdaptive, FixedControllerAlsoCorrect) {
  const auto g = random_weighted(150, 8.0, 7);
  const auto reference = sssp::dijkstra(g, 3);
  ThreadPool pool(2);
  FixedController controller(16);
  const auto dist = run_sssp(g, 3, controller, pool, 8);
  for (NodeId v = 0; v < 150; ++v) {
    if (reference[v] != sssp::kUnreachable) {
      EXPECT_NEAR(dist[v], reference[v], 1e-9);
    }
  }
}

TEST(SsspPriorityAdaptive, MatchesDijkstraExactly) {
  const auto g = random_weighted(200, 7.0, 17);
  const auto reference = sssp::dijkstra(g, 0);
  ThreadPool pool(4);
  ControllerParams p;
  HybridController controller(p);
  const auto dist =
      run_sssp(g, 0, controller, pool, 18, WorklistPolicy::kPriority);
  for (NodeId v = 0; v < 200; ++v) {
    if (reference[v] == sssp::kUnreachable) {
      EXPECT_EQ(dist[v], sssp::kUnreachable);
    } else {
      EXPECT_NEAR(dist[v], reference[v], 1e-9);
    }
  }
}

TEST(SsspPriorityAdaptive, CommitsNoMoreRelaxationsThanRandomOrder) {
  // Relaxing near-source nodes first is Dijkstra-like: each node settles
  // with few re-relaxations, so the total committed work is smaller than
  // under uniformly random selection (usually much smaller).
  const auto g = random_weighted(400, 8.0, 19);
  ThreadPool pool(4);
  ControllerParams p;
  HybridController c1(p);
  Trace random_order;
  (void)run_sssp(g, 0, c1, pool, 20, WorklistPolicy::kRandom, &random_order);
  HybridController c2(p);
  Trace priority_order;
  (void)run_sssp(g, 0, c2, pool, 20, WorklistPolicy::kPriority,
                 &priority_order);
  EXPECT_LE(priority_order.total_committed(), random_order.total_committed());
}

TEST(SsspAdaptive, DisconnectedNodesStayUnreachable) {
  const auto g = WeightedGraph::from_edges(6, {{0, 1, 1.0}, {1, 2, 1.0}});
  ThreadPool pool(2);
  ControllerParams p;
  HybridController controller(p);
  const auto dist = run_sssp(g, 0, controller, pool, 9);
  EXPECT_EQ(dist[4], sssp::kUnreachable);
  EXPECT_EQ(dist[5], sssp::kUnreachable);
}

// -------------------------------------------------------------- maxflow

maxflow::FlowNetwork diamond() {
  // s=0, t=3: two length-2 paths with caps (3,2) and (2,3), plus a cross
  // arc 1->2 of cap 1. Max flow = 5.
  maxflow::FlowNetwork net(4);
  net.add_arc(0, 1, 3);
  net.add_arc(0, 2, 2);
  net.add_arc(1, 3, 2);
  net.add_arc(2, 3, 3);
  net.add_arc(1, 2, 1);
  return net;
}

struct MaxflowRun {
  double flow_value = 0.0;
  bool feasible = false;
  Trace trace;
};

/// Push-relabel on `net` from s to t through its spec.
MaxflowRun run_maxflow(maxflow::FlowNetwork& net, NodeId s, NodeId t,
                       Controller& controller, ThreadPool& pool,
                       std::uint64_t seed) {
  maxflow::PushRelabelState state(net.num_nodes(), s);
  const AppSpec spec = maxflow::make_spec(net, state, s, t);
  MaxflowRun run;
  run.trace = drain(*build_executor(pool, spec, seed), spec, controller).trace;
  run.flow_value = state.excess(t);
  run.feasible = net.is_feasible(s, t);
  return run;
}

TEST(FlowNetwork, ArcBookkeeping) {
  auto net = diamond();
  EXPECT_EQ(net.num_nodes(), 4u);
  EXPECT_EQ(net.arcs(0).size(), 2u);
  EXPECT_EQ(net.arcs(1).size(), 3u);  // rev of 0->1, fwd 1->3, fwd 1->2
  net.push(0, 0, 2.0);
  EXPECT_DOUBLE_EQ(net.arcs(0)[0].flow, 2.0);
  EXPECT_DOUBLE_EQ(net.arcs(0)[0].residual(), 1.0);
  // Reverse arc gained residual.
  const auto& fwd = net.arcs(0)[0];
  EXPECT_DOUBLE_EQ(net.arcs(fwd.rev_node)[fwd.rev_index].residual(), 2.0);
  net.reset_flow();
  EXPECT_DOUBLE_EQ(net.arcs(0)[0].flow, 0.0);
}

TEST(FlowNetwork, AddArcValidation) {
  maxflow::FlowNetwork net(3);
  EXPECT_THROW((void)net.add_arc(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)net.add_arc(0, 9, 1.0), std::invalid_argument);
  EXPECT_THROW((void)net.add_arc(0, 1, -2.0), std::invalid_argument);
}

TEST(EdmondsKarp, DiamondIsFive) {
  EXPECT_DOUBLE_EQ(maxflow::edmonds_karp(diamond(), 0, 3), 5.0);
}

TEST(EdmondsKarp, DisconnectedIsZero) {
  maxflow::FlowNetwork net(4);
  net.add_arc(0, 1, 7);
  EXPECT_DOUBLE_EQ(maxflow::edmonds_karp(net, 0, 3), 0.0);
}

TEST(MaxflowAdaptive, DiamondMatches) {
  auto net = diamond();
  ThreadPool pool(2);
  ControllerParams p;
  HybridController controller(p);
  const auto result = run_maxflow(net, 0, 3, controller, pool, 11);
  EXPECT_DOUBLE_EQ(result.flow_value, 5.0);
  EXPECT_TRUE(result.feasible);
}

class MaxflowRandomTest : public ::testing::TestWithParam<NodeId> {};

TEST_P(MaxflowRandomTest, MatchesEdmondsKarpOnRandomNetworks) {
  const NodeId n = GetParam();
  Rng rng(500 + n);
  maxflow::FlowNetwork net(n);
  // Random DAG-ish network with integer capacities plus guaranteed
  // s-connectivity structure.
  for (NodeId v = 0; v + 1 < n; ++v) {
    net.add_arc(v, v + 1, static_cast<double>(1 + rng.below(8)));
  }
  const auto extra = static_cast<std::size_t>(n) * 3;
  for (std::size_t e = 0; e < extra; ++e) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    net.add_arc(u, v, static_cast<double>(1 + rng.below(12)));
  }
  const NodeId s = 0;
  const NodeId t = n - 1;
  const double reference = maxflow::edmonds_karp(net, s, t);

  ThreadPool pool(4);
  ControllerParams p;
  HybridController controller(p);
  const auto result = run_maxflow(net, s, t, controller, pool, n * 3 + 1);
  EXPECT_DOUBLE_EQ(result.flow_value, reference);
  EXPECT_TRUE(result.feasible);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MaxflowRandomTest,
                         ::testing::Values(8u, 24u, 60u, 120u));

TEST(MaxflowAdaptive, FixedControllerAlsoCorrect) {
  auto net = diamond();
  ThreadPool pool(2);
  FixedController controller(4);
  const auto result = run_maxflow(net, 0, 3, controller, pool, 13);
  EXPECT_DOUBLE_EQ(result.flow_value, 5.0);
}

TEST(GlobalRelabel, HeightsBecomeValidDistanceLabels) {
  auto net = diamond();
  maxflow::PushRelabelState state(4, 0);
  maxflow::global_relabel(net, state, 0, 3);
  // With zero flow every arc is residual: heights = BFS distance to t.
  EXPECT_EQ(state.height(1), 1u);
  EXPECT_EQ(state.height(2), 1u);
  EXPECT_EQ(state.height(3), 0u);
  EXPECT_EQ(state.height(0), 4u);  // source untouched (n)
}

TEST(GlobalRelabel, NeverLowersHeights) {
  auto net = diamond();
  maxflow::PushRelabelState state(4, 0);
  state.set_height(1, 9);
  maxflow::global_relabel(net, state, 0, 3);
  EXPECT_EQ(state.height(1), 9u);
}

TEST(MaxflowAdaptive, CorrectWithoutGlobalRelabel) {
  auto net = diamond();
  maxflow::PushRelabelState state(4, 0);
  AppSpec spec = maxflow::make_spec(net, state, 0, 3);
  spec.before_round = nullptr;  // no global relabel
  ThreadPool pool(2);
  ControllerParams p;
  HybridController controller(p);
  (void)drain(*build_executor(pool, spec, 14), spec, controller);
  EXPECT_DOUBLE_EQ(state.excess(3), 5.0);
}

TEST(MaxflowAdaptive, GlobalRelabelCutsRounds) {
  Rng rng(321);
  maxflow::FlowNetwork base(80);
  for (NodeId v = 0; v + 1 < 80; ++v) {
    base.add_arc(v, v + 1, static_cast<double>(1 + rng.below(6)));
  }
  for (int e = 0; e < 240; ++e) {
    const auto u = static_cast<NodeId>(rng.below(80));
    const auto v = static_cast<NodeId>(rng.below(80));
    if (u != v) base.add_arc(u, v, static_cast<double>(1 + rng.below(10)));
  }
  const double reference = maxflow::edmonds_karp(base, 0, 79);
  ThreadPool pool(2);

  // Rounds to drain with the spec's hook replaced by a global relabel
  // every 32 rounds, or by no hook at all.
  auto rounds = [&](bool relabel) {
    maxflow::FlowNetwork net = base;
    net.reset_flow();
    maxflow::PushRelabelState state(80, 0);
    AppSpec spec = maxflow::make_spec(net, state, 0, 79);
    spec.before_round = nullptr;
    std::uint32_t since = 0;
    if (relabel) {
      spec.before_round = [&](SpeculativeExecutor&) {
        if (++since >= 32) {
          since = 0;
          maxflow::global_relabel(net, state, 0, 79);
        }
      };
    }
    ControllerParams p;
    HybridController c(p);
    const Trace trace =
        drain(*build_executor(pool, spec, 15), spec, c).trace;
    EXPECT_DOUBLE_EQ(state.excess(79), reference);
    return trace.steps.size();
  };
  const auto with = rounds(true);
  const auto without = rounds(false);
  EXPECT_LT(with, without);
}

TEST(MaxflowAdaptive, RejectsSourceEqualsSink) {
  auto net = diamond();
  maxflow::PushRelabelState state(net.num_nodes(), 1);
  EXPECT_THROW((void)maxflow::make_spec(net, state, 1, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace optipar
