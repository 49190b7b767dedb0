// Mutation self-tests for the result certifiers (DESIGN.md §16): build a
// known-good answer per app, certify it (ok), then perturb it in each way
// the taxonomy names and demand the EXACT CertCode — the WHFC flow_tester
// discipline. A certifier that accepts a mutated answer, or rejects it
// with the wrong code, is itself broken.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "apps/boruvka/boruvka.hpp"
#include "apps/coloring/coloring.hpp"
#include "apps/dmr/delaunay.hpp"
#include "apps/dmr/mesh.hpp"
#include "apps/dmr/refine.hpp"
#include "apps/maxflow/maxflow.hpp"
#include "apps/mis/mis.hpp"
#include "apps/sp/formula.hpp"
#include "apps/sp/survey.hpp"
#include "apps/sssp/sssp.hpp"
#include "control/hybrid.hpp"
#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "graph/weighted_graph.hpp"
#include "rt/adaptive_executor.hpp"
#include "rt/fault_injector.hpp"
#include "rt/spec_executor.hpp"
#include "support/failure_policy.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "verify/app_certs.hpp"
#include "verify/certifier.hpp"
#include "verify/executor_cert.hpp"
#include "verify/harness.hpp"

namespace optipar {
namespace {

using verify::CertCode;
using verify::Certificate;

// ---------------------------------------------------------------------------
// MIS
// ---------------------------------------------------------------------------

struct MisFixture {
  CsrGraph g;
  mis::MisState state{0};

  MisFixture() : g(make_graph()), state(g.num_nodes()) {
    std::vector<NodeId> order(g.num_nodes());
    std::iota(order.begin(), order.end(), NodeId{0});
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      state.set(v, mis::NodeState::kOut);
    }
    for (const NodeId v : greedy_mis(g, order)) {
      state.set(v, mis::NodeState::kIn);
    }
  }

  static CsrGraph make_graph() {
    Rng rng(11);
    return gen::random_with_average_degree(60, 6, rng);
  }

  /// First IN node that has at least one neighbor.
  [[nodiscard]] NodeId in_node_with_neighbor() const {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (state.get(v) == mis::NodeState::kIn && g.degree(v) > 0) return v;
    }
    ADD_FAILURE() << "no in-set node with a neighbor";
    return 0;
  }
  [[nodiscard]] NodeId out_node() const {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (state.get(v) == mis::NodeState::kOut) return v;
    }
    ADD_FAILURE() << "no out-of-set node";
    return 0;
  }
};

TEST(MisCert, AcceptsGreedySweep) {
  MisFixture f;
  const Certificate cert = verify::certify_mis(f.g, f.state);
  EXPECT_TRUE(cert.ok()) << cert.describe();
  EXPECT_GT(cert.checked, 0u);
}

TEST(MisCert, RejectsAdjacentInPair) {
  MisFixture f;
  const NodeId v = f.in_node_with_neighbor();
  f.state.set(f.g.neighbors(v).front(), mis::NodeState::kIn);
  EXPECT_EQ(verify::certify_mis(f.g, f.state).code,
            CertCode::kNotIndependent);
}

TEST(MisCert, RejectsDroppedInNode) {
  MisFixture f;
  f.state.set(f.in_node_with_neighbor(), mis::NodeState::kOut);
  EXPECT_EQ(verify::certify_mis(f.g, f.state).code, CertCode::kNotMaximal);
}

TEST(MisCert, RejectsUndecidedNode) {
  MisFixture f;
  f.state.set(f.out_node(), mis::NodeState::kUndecided);
  EXPECT_EQ(verify::certify_mis(f.g, f.state).code,
            CertCode::kUndecidedNode);
}

// ---------------------------------------------------------------------------
// Coloring
// ---------------------------------------------------------------------------

struct ColoringFixture {
  CsrGraph g;
  coloring::ColoringState state{0};

  ColoringFixture() : g(MisFixture::make_graph()), state(g.num_nodes()) {
    // Sequential first-fit greedy: the invariant the certifier checks.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      std::vector<bool> used(g.degree(v) + 1, false);
      for (const NodeId u : g.neighbors(v)) {
        const std::uint32_t c = state.color(u);
        if (c != coloring::kUncolored && c < used.size()) used[c] = true;
      }
      std::uint32_t c = 0;
      while (used[c]) ++c;
      state.set_color(v, c);
    }
  }

  [[nodiscard]] NodeId node_with_neighbor() const {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.degree(v) > 0) return v;
    }
    ADD_FAILURE() << "graph has no edges";
    return 0;
  }
};

TEST(ColoringCert, AcceptsGreedyColoring) {
  ColoringFixture f;
  const Certificate cert = verify::certify_coloring(f.g, f.state);
  EXPECT_TRUE(cert.ok()) << cert.describe();
}

TEST(ColoringCert, RejectsMonochromaticEdge) {
  ColoringFixture f;
  const NodeId v = f.node_with_neighbor();
  f.state.set_color(v, f.state.color(f.g.neighbors(v).front()));
  EXPECT_EQ(verify::certify_coloring(f.g, f.state).code,
            CertCode::kBadColor);
}

TEST(ColoringCert, RejectsUncoloredNode) {
  ColoringFixture f;
  f.state.set_color(0, coloring::kUncolored);
  EXPECT_EQ(verify::certify_coloring(f.g, f.state).code,
            CertCode::kUncolored);
}

TEST(ColoringCert, RejectsPaletteOverflow) {
  ColoringFixture f;
  f.state.set_color(0, f.g.max_degree() + 5);
  EXPECT_EQ(verify::certify_coloring(f.g, f.state).code,
            CertCode::kPaletteOverflow);
}

// ---------------------------------------------------------------------------
// SSSP
// ---------------------------------------------------------------------------

struct SsspFixture {
  WeightedGraph g;
  std::vector<double> dist;

  // Path 0 -1- 1 -2- 2: dist = [0, 1, 3]; every mutation below is exact.
  SsspFixture()
      : g(WeightedGraph::from_edges(3, {{0, 1, 1.0}, {1, 2, 2.0}})),
        dist(sssp::dijkstra(g, 0)) {}
};

TEST(SsspCert, AcceptsDijkstra) {
  SsspFixture f;
  const Certificate cert = verify::certify_sssp(f.g, 0, f.dist);
  EXPECT_TRUE(cert.ok()) << cert.describe();
}

TEST(SsspCert, RejectsNonzeroSourceDistance) {
  SsspFixture f;
  f.dist[0] = 1.0;
  EXPECT_EQ(verify::certify_sssp(f.g, 0, f.dist).code,
            CertCode::kBadSourceDistance);
}

TEST(SsspCert, RejectsRelaxableEdge) {
  SsspFixture f;
  f.dist[2] = 10.0;  // edge (1, 2) would relax 10 to 3
  EXPECT_EQ(verify::certify_sssp(f.g, 0, f.dist).code, CertCode::kRelaxable);
}

TEST(SsspCert, RejectsLabelWithNoWitness) {
  SsspFixture f;
  f.dist[2] = 2.5;  // below the true 3.0: no edge is tight, none relaxable
  EXPECT_EQ(verify::certify_sssp(f.g, 0, f.dist).code, CertCode::kNoWitness);
}

// Dijkstra on a random instance must certify too (not just the toy path).
TEST(SsspCert, AcceptsDijkstraOnRandomGraph) {
  Rng rng(5);
  const CsrGraph base = gen::random_with_average_degree(80, 6, rng);
  std::vector<WeightedEdgeTriple> edges;
  for (const auto& [u, v] : base.edges()) {
    edges.push_back({u, v, rng.uniform() * 10.0 + 0.1});
  }
  const WeightedGraph g = WeightedGraph::from_edges(base.num_nodes(), edges);
  const Certificate cert = verify::certify_sssp(g, 0, sssp::dijkstra(g, 0));
  EXPECT_TRUE(cert.ok()) << cert.describe();
}

// ---------------------------------------------------------------------------
// Boruvka
// ---------------------------------------------------------------------------

TEST(BoruvkaCert, AcceptsKruskalReference) {
  // Triangle: MST = {0-1, 1-2}, weight 3, two edges.
  const std::vector<boruvka::WeightedEdge> edges = {
      {0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 10.0}};
  const Certificate cert = verify::certify_boruvka(3, edges, 3.0, 2);
  EXPECT_TRUE(cert.ok()) << cert.describe();
}

TEST(BoruvkaCert, RejectsWrongWeight) {
  const std::vector<boruvka::WeightedEdge> edges = {
      {0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 10.0}};
  EXPECT_EQ(verify::certify_boruvka(3, edges, 4.0, 2).code,
            CertCode::kWeightMismatch);
}

TEST(BoruvkaCert, RejectsWrongEdgeCount) {
  const std::vector<boruvka::WeightedEdge> edges = {
      {0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 10.0}};
  EXPECT_EQ(verify::certify_boruvka(3, edges, 3.0, 3).code,
            CertCode::kNotSpanning);
}

// ---------------------------------------------------------------------------
// Maxflow
// ---------------------------------------------------------------------------

struct MaxflowFixture {
  // s=0 -cap 3-> a=1 -cap 2-> t=2; max flow 2.
  maxflow::FlowNetwork net{3};

  MaxflowFixture() {
    net.add_arc(0, 1, 3.0);
    net.add_arc(1, 2, 2.0);
  }
  // Arc indices: node 0 holds [s->a]; node 1 holds [rev(s->a), a->t].
  void push_sa(double amount) { net.push(0, 0, amount); }
  void push_at(double amount) { net.push(1, 1, amount); }
};

TEST(MaxflowCert, AcceptsSaturatedFlow) {
  MaxflowFixture f;
  f.push_sa(2.0);
  f.push_at(2.0);
  const Certificate cert = verify::certify_maxflow(f.net, 0, 2, 2.0);
  EXPECT_TRUE(cert.ok()) << cert.describe();
}

TEST(MaxflowCert, RejectsOverfilledArc) {
  MaxflowFixture f;
  f.push_sa(4.0);  // capacity 3
  f.push_at(2.0);
  EXPECT_EQ(verify::certify_maxflow(f.net, 0, 2, 2.0).code,
            CertCode::kFlowViolation);
}

TEST(MaxflowCert, RejectsUnconservedNode) {
  MaxflowFixture f;
  f.push_sa(2.0);  // excess stranded at node 1
  EXPECT_EQ(verify::certify_maxflow(f.net, 0, 2, 2.0).code,
            CertCode::kNotConserved);
}

TEST(MaxflowCert, RejectsSubmaximalFlow) {
  MaxflowFixture f;
  f.push_sa(1.0);  // feasible and conserved, but an augmenting path remains
  f.push_at(1.0);
  EXPECT_EQ(verify::certify_maxflow(f.net, 0, 2, 1.0).code,
            CertCode::kCutMismatch);
}

// ---------------------------------------------------------------------------
// Survey propagation
// ---------------------------------------------------------------------------

struct SpFixture {
  // (x0) ∧ (¬x0 ∨ x1) ∧ (x2): unique satisfying assignment 1,1,1 on the
  // constrained vars; every single-bit flip of x0 or x2 falsifies.
  sp::Formula formula{3,
                      {sp::Clause{{{0, true}}},
                       sp::Clause{{{0, false}, {1, true}}},
                       sp::Clause{{{2, true}}}}};
  sp::SidResult result;

  SpFixture() {
    result.satisfied = true;
    result.assignment = {1, 1, 1};
  }
};

TEST(SpCert, AcceptsSatisfyingAssignment) {
  SpFixture f;
  const Certificate cert = verify::certify_sp(f.formula, f.result);
  EXPECT_TRUE(cert.ok()) << cert.describe();
}

TEST(SpCert, RejectsFlippedVariable) {
  SpFixture f;
  f.result.assignment[2] = 0;
  EXPECT_EQ(verify::certify_sp(f.formula, f.result).code,
            CertCode::kBadAssignment);
}

TEST(SpCert, RejectsTruncatedAssignment) {
  SpFixture f;
  f.result.assignment.pop_back();
  EXPECT_EQ(verify::certify_sp(f.formula, f.result).code,
            CertCode::kBadAssignment);
}

TEST(SpCert, RejectsUnsatisfiedClaim) {
  SpFixture f;
  f.result.satisfied = false;
  EXPECT_EQ(verify::certify_sp(f.formula, f.result).code,
            CertCode::kNotSatisfied);
}

// ---------------------------------------------------------------------------
// Delaunay mesh refinement
// ---------------------------------------------------------------------------

struct MeshFixture {
  std::vector<dmr::Point2> pts;
  dmr::Mesh mesh;
  dmr::RefineQuality q;

  MeshFixture() {
    Rng rng(3);
    for (int i = 0; i < 24; ++i) {
      pts.push_back({rng.uniform() * 100.0, rng.uniform() * 100.0});
    }
    dmr::build_delaunay(mesh, pts, 16.0);
    q.min_angle_deg = 0.0;  // nothing is refinable-bad by construction
    q.set_domain(pts);
  }

  [[nodiscard]] Certificate certify() const {
    return verify::certify_mesh(mesh, q, dmr::kNumSuperVertices,
                                /*spot_checks=*/256, /*seed=*/9);
  }
};

TEST(MeshCert, AcceptsDelaunayTriangulation) {
  MeshFixture f;
  const Certificate cert = f.certify();
  EXPECT_TRUE(cert.ok()) << cert.describe();
}

TEST(MeshCert, RejectsBrokenAdjacency) {
  MeshFixture f;
  // Sever one side of a neighbor link: validate() demands symmetry.
  for (const dmr::TriId t : f.mesh.alive_triangles()) {
    for (int slot = 0; slot < 3; ++slot) {
      if (f.mesh.neighbor(t, slot) != dmr::kNoNeighbor) {
        f.mesh.set_neighbor(t, slot, dmr::kNoNeighbor);
        EXPECT_EQ(f.certify().code, CertCode::kBadMesh);
        return;
      }
    }
  }
  FAIL() << "no adjacent triangle pair to sever";
}

TEST(MeshCert, RejectsSurvivingBadTriangle) {
  MeshFixture f;
  f.q.min_angle_deg = 60.0;  // random-point triangulations cannot meet this
  EXPECT_EQ(f.certify().code, CertCode::kStillBad);
}

TEST(MeshCert, RejectsNonDelaunayPair) {
  // Handmade pair whose shared diagonal should have been flipped:
  // D lies strictly inside circumcircle(A, B, C).
  dmr::Mesh mesh;
  const dmr::PointId a = mesh.add_point({0.0, 0.0});
  const dmr::PointId b = mesh.add_point({2.0, 0.0});
  const dmr::PointId c = mesh.add_point({2.0, 2.0});
  const dmr::PointId d = mesh.add_point({-0.3, 1.0});
  const dmr::TriId t1 = mesh.create_triangle(a, b, c);
  const dmr::TriId t2 = mesh.create_triangle(a, c, d);
  mesh.set_neighbor(t1, 1, t2);  // across edge a-c (opposite b)
  mesh.set_neighbor(t2, 2, t1);  // across edge a-c (opposite d)
  dmr::RefineQuality q;
  q.min_angle_deg = 0.0;
  EXPECT_EQ(verify::certify_mesh(mesh, q, /*skip_verts_below=*/0,
                                 /*spot_checks=*/16, /*seed=*/1)
                .code,
            CertCode::kNotDelaunay);
}

// ---------------------------------------------------------------------------
// Executor completeness + chaos certify-after-recovery
// ---------------------------------------------------------------------------

TEST(ExecutorCert, RefutesUndrainedRun) {
  ThreadPool pool(2);
  SpeculativeExecutor ex(pool, 8, [](TaskId, IterationContext&) {}, 1);
  std::vector<TaskId> tasks(8);
  std::iota(tasks.begin(), tasks.end(), TaskId{0});
  ex.push_initial(tasks);
  const Certificate cert = verify::certify_drained_run(ex, 8);
  EXPECT_EQ(cert.code, CertCode::kNotDrained);
}

/// Injected operator faults abort and retry iterations; after the run
/// drains, the completeness certificate must hold AND the shared state
/// must match the sequential oracle — recovery leaves no trace.
TEST(ExecutorCert, ChaosRunCertifiesAfterRecovery) {
  constexpr std::uint32_t kCells = 32;
  constexpr std::uint32_t kTasks = 200;
  Rng gen_rng(17);
  struct Effect {
    std::uint32_t cell;
    std::int64_t delta;
  };
  std::vector<Effect> effects(kTasks);
  for (auto& e : effects) {
    e.cell = static_cast<std::uint32_t>(gen_rng.below(kCells));
    e.delta = gen_rng.between(-5, 5);
  }
  std::vector<std::int64_t> oracle(kCells, 0);
  for (const auto& e : effects) oracle[e.cell] += e.delta;

  std::vector<std::int64_t> cells(kCells, 0);
  ThreadPool pool(2);
  SpeculativeExecutor ex(
      pool, kCells,
      [&](TaskId t, IterationContext& ctx) {
        const Effect& e = effects[t];
        if (!ctx.acquire(e.cell)) return;
        cells[e.cell] += e.delta;
      },
      41);

  FaultInjector injector(23);
  injector.set_rate(FaultSite::kOperatorThrow, 0.05);
  ex.set_fault_injector(&injector);
  FailurePolicy policy;
  policy.max_retries = 8;  // enough that no task dead-letters at 5% rate
  ex.set_failure_policy(policy);

  std::vector<TaskId> tasks(kTasks);
  std::iota(tasks.begin(), tasks.end(), TaskId{0});
  ex.push_initial(tasks);

  ControllerParams params;
  HybridController controller(params);
  AdaptiveRunConfig config;
  config.certifier = [&ex] { return verify::certify_drained_run(ex, kTasks); };
  AdaptiveRun run(ex, controller, std::move(config));
  while (run.step()) {
  }
  run.ensure_certified();

  ASSERT_GT(injector.total_fired(), 0u) << "chaos run injected nothing";
  ASSERT_TRUE(run.certificate().has_value());
  EXPECT_TRUE(run.certificate()->ok()) << run.certificate()->describe();
  EXPECT_TRUE(ex.dead_letters().empty());
  EXPECT_EQ(cells, oracle);
}

// ---------------------------------------------------------------------------
// Harness end-to-end: every app × scheduler certifies on a small instance
// ---------------------------------------------------------------------------

struct HarnessCase {
  verify::AppKind app;
  sched::Backend backend;
  // What the app drains to on a one-worker pool at small_run()'s input.
  // Exact: optimised and unoptimised builds drain to the same values, so a
  // change that moves an app's one-lane schedule or answer shows here.
  std::uint64_t rounds;
  std::uint64_t launched;
  std::uint64_t committed;
  std::uint64_t aborted;
  double answer;
};

class VerifyHarnessTest : public ::testing::TestWithParam<HarnessCase> {};

verify::AppRunOptions small_run(sched::Backend backend) {
  verify::AppRunOptions opt;
  opt.nodes = 120;
  opt.degree = 6;
  opt.seed = 2;
  opt.scheduler = backend;
  return opt;
}

TEST_P(VerifyHarnessTest, SmallRunCertifies) {
  const HarnessCase param = GetParam();
  ThreadPool pool(2);
  const verify::AppRunReport report =
      verify::run_app_certified(param.app, pool, small_run(param.backend));
  EXPECT_TRUE(report.certificate.ok()) << report.certificate.describe();
  EXPECT_GT(report.certificate.checked, 0u);
}

TEST_P(VerifyHarnessTest, OneLaneScheduleIsPinned) {
  const HarnessCase param = GetParam();
  ThreadPool pool(1);
  const verify::AppRunReport report =
      verify::run_app_certified(param.app, pool, small_run(param.backend));
  EXPECT_TRUE(report.certificate.ok()) << report.certificate.describe();
  EXPECT_EQ(report.rounds, param.rounds);
  EXPECT_EQ(report.launched, param.launched);
  EXPECT_EQ(report.committed, param.committed);
  EXPECT_EQ(report.aborted, param.aborted);
  EXPECT_EQ(report.answer, param.answer);
}

std::vector<HarnessCase> harness_cases() {
  using verify::AppKind;
  constexpr sched::Backend kRandom = sched::Backend::kRandom;
  constexpr sched::Backend kChromatic = sched::Backend::kChromatic;
  // app, backend, rounds, launched, committed, aborted, answer
  return {
      {AppKind::kMis, kRandom, 29, 140, 120, 20, 41.0},
      {AppKind::kMis, kChromatic, 25, 120, 120, 0, 37.0},
      {AppKind::kColoring, kRandom, 51, 169, 120, 49, 6.0},
      {AppKind::kColoring, kChromatic, 25, 120, 120, 0, 6.0},
      {AppKind::kSssp, kRandom, 162, 766, 474, 292, 120.0},
      {AppKind::kSssp, kChromatic, 152, 563, 563, 0, 120.0},
      {AppKind::kBoruvka, kRandom, 88, 223, 153, 70, 2553.0229263044021},
      {AppKind::kBoruvka, kChromatic, 76, 205, 205, 0, 2553.0229263044012},
      {AppKind::kMaxflow, kRandom, 128, 216, 166, 50, 54.687429567118727},
      {AppKind::kMaxflow, kChromatic, 83, 100, 100, 0, 54.687429567118713},
      {AppKind::kSp, kRandom, 1614, 3411, 2198, 1213, 1.0},
      {AppKind::kSp, kChromatic, 428, 1264, 1264, 0, 1.0},
      {AppKind::kDmr, kRandom, 83, 1344, 998, 346, 1305.0},
      {AppKind::kDmr, kChromatic, 63, 981, 981, 0, 1287.0},
  };
}

INSTANTIATE_TEST_SUITE_P(
    AllAppsAllBackends, VerifyHarnessTest,
    ::testing::ValuesIn(harness_cases()),
    [](const ::testing::TestParamInfo<HarnessCase>& info) {
      return std::string(verify::app_name(info.param.app)) + "_" +
             sched::backend_name(info.param.backend);
    });

}  // namespace
}  // namespace optipar
