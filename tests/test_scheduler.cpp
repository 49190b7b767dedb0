// Scheduler backend contracts (DESIGN.md §14). Four families:
//  * random — the extracted backend replays the legacy constructor's draw
//    byte-for-byte at one lane (round stats, shared state, snapshot bytes);
//  * chromatic — zero aborts BY CONSTRUCTION on all seven application
//    kernels (coloring, MIS, SSSP, Boruvka, maxflow, survey propagation,
//    Delaunay refinement), each run through its app spec with the app's
//    correctness oracle intact;
//  * footprint contract — every spec's declared footprint covers every
//    item its operator acquires;
//  * cautious contract — every app operator, and the chaos cell
//    workload's, takes every lock before its first write, so an aborted
//    call leaves the state untouched;
//  * every backend serializes through save_state/load_state so a
//    kill-and-resume run replays the original byte-for-byte, and a
//    snapshot taken under one backend refuses to load under another.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "apps/app_spec.hpp"
#include "apps/boruvka/boruvka.hpp"
#include "apps/coloring/coloring.hpp"
#include "apps/dmr/delaunay.hpp"
#include "apps/dmr/refine.hpp"
#include "apps/maxflow/maxflow.hpp"
#include "apps/mis/mis.hpp"
#include "apps/sp/survey.hpp"
#include "apps/sssp/sssp.hpp"
#include "control/baselines.hpp"
#include "control/hybrid.hpp"
#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "graph/weighted_graph.hpp"
#include "rt/spec_executor.hpp"
#include "support/snapshot/snapshot.hpp"
#include "support/thread_pool.hpp"

namespace optipar {
namespace {

RoundOptions options_for(sched::Backend backend) {
  RoundOptions opts;
  opts.scheduler = backend;
  return opts;
}

/// Drain `spec` on the chromatic backend at fixed allocation m on four
/// lanes, with the spec's hook between rounds. Returns total aborts.
std::uint64_t chromatic_aborts(const AppSpec& spec, std::uint32_t m,
                               std::uint64_t seed) {
  ThreadPool pool(4);
  const auto ex =
      build_executor(pool, spec, seed, options_for(sched::Backend::kChromatic));
  FixedController controller(m);
  (void)drain(*ex, spec, controller);
  EXPECT_TRUE(ex->done());
  return ex->totals().aborted;
}

WeightedGraph weighted_graph(NodeId n, double degree, std::uint64_t seed) {
  Rng rng(seed);
  const CsrGraph base = gen::random_with_average_degree(n, degree, rng);
  std::vector<WeightedEdgeTriple> edges;
  for (const auto& [u, v] : base.edges()) {
    edges.push_back({u, v, rng.uniform() * 10.0 + 0.1});
  }
  return WeightedGraph::from_edges(n, edges);
}

std::vector<boruvka::WeightedEdge> boruvka_edges(NodeId n, double degree,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  const CsrGraph base = gen::random_with_average_degree(n, degree, rng);
  std::vector<boruvka::WeightedEdge> edges;
  for (const auto& [u, v] : base.edges()) {
    edges.push_back({u, v, rng.uniform() * 100.0 + 1e-3});
  }
  return edges;
}

/// Layered random network s=0 -> L1 (1..20) -> L2 (21..40) -> t=41.
maxflow::FlowNetwork layered_network(std::uint64_t seed) {
  constexpr NodeId kN = 42;
  const NodeId s = 0;
  const NodeId t = kN - 1;
  maxflow::FlowNetwork net(kN);
  Rng rng(seed);
  for (NodeId v = 1; v < 21; ++v) {
    net.add_arc(s, v, rng.uniform() * 8.0 + 1.0);
  }
  for (NodeId v = 1; v < 21; ++v) {
    for (int k = 0; k < 3; ++k) {
      const NodeId w = 21 + static_cast<NodeId>(rng.below(20));
      net.add_arc(v, w, rng.uniform() * 6.0 + 0.5);
    }
  }
  for (NodeId w = 21; w < 41; ++w) {
    net.add_arc(w, t, rng.uniform() * 8.0 + 1.0);
  }
  return net;
}

/// Delaunay mesh of `points` random points with the refinement quality
/// the harness uses. The mesh is heap-held: a spec refers to it.
std::pair<std::unique_ptr<dmr::Mesh>, dmr::RefineQuality> refinement_input(
    int points, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<dmr::Point2> pts;
  for (int i = 0; i < points; ++i) {
    pts.push_back({rng.uniform() * 100.0, rng.uniform() * 100.0});
  }
  auto mesh = std::make_unique<dmr::Mesh>();
  dmr::build_delaunay(*mesh, pts, 16.0);
  dmr::RefineQuality q;
  q.min_angle_deg = 25.0;
  q.min_edge = 2.0;
  q.set_domain(pts);
  return {std::move(mesh), q};
}

// ---------------------------------------------------------------------------
// Random backend: byte-identical extraction of the legacy draw
// ---------------------------------------------------------------------------

constexpr std::uint32_t kCells = 32;
constexpr std::uint32_t kTasks = 160;

struct GoldenRun {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rounds;
  std::vector<std::int64_t> cells;
  std::vector<std::byte> state;
};

/// Two cells per task (one shared with a neighbor task): single-lane
/// rounds still mix commits and aborts because locks are held to the
/// round boundary.
TaskOperator cell_operator(std::vector<std::int64_t>& cells) {
  return [&cells](TaskId t, IterationContext& ctx) {
    const auto a = static_cast<std::uint32_t>(t % kCells);
    const auto b = static_cast<std::uint32_t>((t * 7 + 3) % kCells);
    if (!ctx.acquire(a) || !ctx.acquire(b)) return;
    cells[a] += 1;
    cells[b] -= 2;
  };
}

sched::FootprintFn cell_footprint() {
  return [](TaskId t, std::vector<std::uint32_t>& fp) {
    fp.push_back(static_cast<std::uint32_t>(t % kCells));
    fp.push_back(static_cast<std::uint32_t>((t * 7 + 3) % kCells));
  };
}

/// Run the cell workload to quiescence at one lane. `legacy` selects the
/// four-argument constructor call (default RoundOptions), which must
/// behave identically to passing the random backend's options explicitly.
GoldenRun run_cells(bool legacy, sched::Backend backend,
                    std::uint64_t seed) {
  GoldenRun out;
  out.cells.assign(kCells, 0);
  ThreadPool pool(1);
  auto make = [&]() -> SpeculativeExecutor {
    if (legacy) {
      return SpeculativeExecutor(pool, kCells, cell_operator(out.cells),
                                 seed);
    }
    return SpeculativeExecutor(pool, kCells, cell_operator(out.cells), seed,
                               options_for(backend));
  };
  SpeculativeExecutor ex = make();
  if (backend == sched::Backend::kChromatic) {
    ex.set_footprint_function(cell_footprint());
  }
  ex.push_initial(all_tasks(kTasks));
  int guard = 0;
  while (!ex.done() && guard++ < 10000) {
    const RoundStats s = ex.run_round(24);
    out.rounds.emplace_back(s.launched, s.committed);
  }
  EXPECT_TRUE(ex.done());
  EXPECT_EQ(ex.totals().committed, kTasks);
  snapshot::Writer w;
  ex.save_state(w);
  out.state = w.bytes();
  return out;
}

TEST(RandomBackend, MatchesLegacyConstructorByteIdentically) {
  const GoldenRun legacy = run_cells(true, sched::Backend::kRandom, 1234);
  const GoldenRun routed = run_cells(false, sched::Backend::kRandom, 1234);
  EXPECT_EQ(legacy.rounds, routed.rounds);
  EXPECT_EQ(legacy.cells, routed.cells);
  EXPECT_EQ(legacy.state, routed.state);
}

TEST(RandomBackend, SingleLaneRunsAreReproducible) {
  const GoldenRun a = run_cells(false, sched::Backend::kRandom, 77);
  const GoldenRun b = run_cells(false, sched::Backend::kRandom, 77);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.state, b.state);
}

// ---------------------------------------------------------------------------
// Chromatic backend: zero aborts on every application kernel
// ---------------------------------------------------------------------------

TEST(ChromaticZeroAbort, GreedyColoring) {
  Rng rng(7);
  const CsrGraph g = gen::random_with_average_degree(300, 8, rng);
  coloring::ColoringState state(g.num_nodes());
  EXPECT_EQ(chromatic_aborts(coloring::make_spec(g, state), 64, 21), 0u);
  EXPECT_TRUE(state.is_proper(g));
}

TEST(ChromaticZeroAbort, MaximalIndependentSet) {
  Rng rng(8);
  const CsrGraph g = gen::random_with_average_degree(300, 12, rng);
  mis::MisState state(g.num_nodes());
  EXPECT_EQ(chromatic_aborts(mis::make_spec(g, state), 64, 22), 0u);
  EXPECT_TRUE(is_maximal_independent_set(g, state.in_set()));
}

TEST(ChromaticZeroAbort, Sssp) {
  const WeightedGraph g = weighted_graph(200, 6, 9);
  sssp::DistanceTable dist(g.num_nodes(), 0);
  EXPECT_EQ(chromatic_aborts(sssp::make_spec(g, dist), 48, 23), 0u);
  const auto oracle = sssp::dijkstra(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (oracle[v] == sssp::kUnreachable) {
      EXPECT_EQ(dist.get(v), sssp::kUnreachable);
    } else {
      EXPECT_NEAR(dist.get(v), oracle[v], 1e-9);
    }
  }
}

TEST(ChromaticZeroAbort, BoruvkaMst) {
  const auto edges = boruvka_edges(150, 6, 10);
  const double kruskal = boruvka::kruskal_mst_weight(150, edges);
  boruvka::ContractionGraph graph(150, edges);
  EXPECT_EQ(chromatic_aborts(boruvka::make_spec(graph), 32, 24), 0u);
  EXPECT_NEAR(graph.chosen_weight(), kruskal, 1e-6 * kruskal);
}

TEST(ChromaticZeroAbort, MaxflowPushRelabel) {
  maxflow::FlowNetwork net = layered_network(11);
  const NodeId s = 0;
  const NodeId t = net.num_nodes() - 1;
  const double oracle = maxflow::edmonds_karp(net, s, t);
  maxflow::PushRelabelState state(net.num_nodes(), s);
  EXPECT_EQ(chromatic_aborts(maxflow::make_spec(net, state, s, t), 16, 25),
            0u);
  EXPECT_TRUE(net.is_feasible(s, t));
  EXPECT_NEAR(state.excess(t), oracle, 1e-9);
}

TEST(ChromaticZeroAbort, SurveyPropagation) {
  Rng rng(12);
  const sp::Formula formula = sp::random_ksat(60, 120, 3, rng);
  sp::SurveyState state(formula, rng);
  constexpr double kTolerance = 1e-2;
  EXPECT_EQ(chromatic_aborts(sp::make_spec(state, kTolerance), 24, 26), 0u);
  for (std::uint32_t a = 0; a < formula.num_clauses(); ++a) {
    EXPECT_LT(state.clause_residual(a), kTolerance);
  }
}

TEST(ChromaticZeroAbort, DelaunayRefinement) {
  auto [mesh, q] = refinement_input(120, 13);
  EXPECT_EQ(chromatic_aborts(dmr::make_spec(*mesh, q), 16, 27), 0u);
  EXPECT_TRUE(dmr::bad_triangles(*mesh, q).empty());
  EXPECT_TRUE(mesh->validate());
}

// ---------------------------------------------------------------------------
// Footprint contract: every item an operator acquires is declared
// ---------------------------------------------------------------------------

/// Drain `spec` at one lane on the random backend with its operator
/// wrapped: after every call (committed or aborted), each item the
/// iteration holds must be in the footprint computed just before the call.
/// Returns the number of undeclared acquisitions and reports the first.
std::size_t undeclared_acquisitions(const AppSpec& spec, std::uint64_t seed) {
  std::size_t undeclared = 0;
  AppSpec checked = spec;
  checked.op = [&spec, &undeclared](TaskId task, IterationContext& ctx) {
    std::vector<std::uint32_t> declared;
    spec.footprint(task, declared);
    std::sort(declared.begin(), declared.end());
    const auto check = [&] {
      for (const std::uint32_t item : ctx.held()) {
        if (!std::binary_search(declared.begin(), declared.end(), item) &&
            undeclared++ == 0) {
          ADD_FAILURE() << "task " << task << " acquired undeclared item "
                        << item;
        }
      }
    };
    try {
      spec.op(task, ctx);
    } catch (...) {
      check();
      throw;
    }
    check();
  };
  ThreadPool pool(1);
  const auto ex = build_executor(pool, checked, seed);
  ControllerParams params;
  HybridController controller(params);
  (void)drain(*ex, checked, controller);
  EXPECT_TRUE(ex->done());
  EXPECT_GT(ex->totals().committed, 0u);
  return undeclared;
}

TEST(FootprintContract, EverySpecDeclaresWhatItAcquires) {
  Rng rng(31);
  const CsrGraph g = gen::random_with_average_degree(120, 6, rng);
  {
    SCOPED_TRACE("mis");
    mis::MisState state(g.num_nodes());
    EXPECT_EQ(undeclared_acquisitions(mis::make_spec(g, state), 1), 0u);
  }
  {
    SCOPED_TRACE("coloring");
    coloring::ColoringState state(g.num_nodes());
    EXPECT_EQ(undeclared_acquisitions(coloring::make_spec(g, state), 2), 0u);
  }
  {
    SCOPED_TRACE("sssp");
    const WeightedGraph wg = weighted_graph(120, 6, 32);
    sssp::DistanceTable dist(wg.num_nodes(), 0);
    EXPECT_EQ(undeclared_acquisitions(sssp::make_spec(wg, dist), 3), 0u);
  }
  {
    SCOPED_TRACE("boruvka");
    boruvka::ContractionGraph graph(120, boruvka_edges(120, 6, 33));
    EXPECT_EQ(undeclared_acquisitions(boruvka::make_spec(graph), 4), 0u);
  }
  {
    SCOPED_TRACE("maxflow");
    maxflow::FlowNetwork net = layered_network(34);
    maxflow::PushRelabelState state(net.num_nodes(), 0);
    EXPECT_EQ(undeclared_acquisitions(
                  maxflow::make_spec(net, state, 0, net.num_nodes() - 1), 5),
              0u);
  }
  {
    SCOPED_TRACE("sp");
    Rng sp_rng(35);
    const sp::Formula formula = sp::random_ksat(40, 80, 3, sp_rng);
    sp::SurveyState state(formula, sp_rng);
    EXPECT_EQ(undeclared_acquisitions(sp::make_spec(state, 1e-2), 6), 0u);
  }
  {
    SCOPED_TRACE("dmr");
    auto [mesh, q] = refinement_input(80, 36);
    EXPECT_EQ(undeclared_acquisitions(dmr::make_spec(*mesh, q), 7), 0u);
  }
  {
    SCOPED_TRACE("lock-only");
    EXPECT_EQ(undeclared_acquisitions(lock_only_spec(g), 8), 0u);
  }
  {
    SCOPED_TRACE("cells");
    const auto effects = cell_effects(37, 200, 32);
    std::vector<std::int64_t> cells(32, 0);
    EXPECT_EQ(undeclared_acquisitions(cell_spec(effects, cells), 9), 0u);
  }
}

// ---------------------------------------------------------------------------
// Cautious contract: an aborted call has written nothing
// ---------------------------------------------------------------------------

/// Order-sensitive FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 14695981039346656037ULL;
  void add(std::uint64_t x) { h = (h ^ x) * 1099511628211ULL; }
  void add_double(double x) { add(std::bit_cast<std::uint64_t>(x)); }
};

/// Drain `spec` at one lane on the random backend with its operator
/// wrapped. Whenever a call ends doomed or throws AbortIteration,
/// `digest()` of the app's state must read the same after the call as
/// before it. For every other one of the first calls the wrapper also
/// holds one footprint item under a foreign owner tag, cycling through
/// footprint positions, so that every acquire position meets a conflict
/// (the calls in between let the drain progress). Returns the number of
/// aborted calls seen.
std::size_t aborted_calls_checked(const AppSpec& spec,
                                  const std::function<std::uint64_t()>& digest,
                                  std::uint64_t seed) {
  constexpr std::size_t kProbedCalls = 256;
  constexpr std::uint32_t kForeign = LockManager::kFree - 1;
  LockManager* locks = nullptr;
  std::size_t calls = 0;
  std::size_t aborted = 0;
  AppSpec checked = spec;
  checked.op = [&](TaskId task, IterationContext& ctx) {
    std::optional<std::uint32_t> foreign;
    if (calls < kProbedCalls && calls % 2 == 0) {
      std::vector<std::uint32_t> fp;
      spec.footprint(task, fp);
      const std::uint32_t item = fp[(calls / 2) % fp.size()];
      // Items the round created are past the lock table until it grows.
      if (item < locks->size() &&
          locks->acquire(item, kForeign) == LockResult::kTaken) {
        foreign = item;
      }
    }
    ++calls;
    const std::uint64_t before = digest();
    const auto check = [&] {
      ++aborted;
      EXPECT_EQ(digest(), before) << "task " << task << " wrote, then aborted";
    };
    const auto release = [&] {
      if (foreign.has_value()) locks->release(*foreign, kForeign);
    };
    try {
      spec.op(task, ctx);
    } catch (const AbortIteration&) {
      check();
      release();
      throw;
    } catch (...) {
      release();
      throw;
    }
    if (ctx.doomed()) check();
    release();
  };
  ThreadPool pool(1);
  const auto ex = build_executor(pool, checked, seed);
  locks = &ex->locks();
  ControllerParams params;
  HybridController controller(params);
  (void)drain(*ex, checked, controller);
  EXPECT_TRUE(ex->done());
  return aborted;
}

TEST(CautiousContract, EveryAppTakesEveryLockBeforeItsFirstWrite) {
  Rng rng(41);
  const CsrGraph g = gen::random_with_average_degree(120, 6, rng);
  {
    SCOPED_TRACE("mis");
    mis::MisState state(g.num_nodes());
    const auto digest = [&] {
      Digest d;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        d.add(static_cast<std::uint64_t>(state.get(v)));
      }
      return d.h;
    };
    EXPECT_GT(aborted_calls_checked(mis::make_spec(g, state), digest, 1), 0u);
  }
  {
    SCOPED_TRACE("coloring");
    coloring::ColoringState state(g.num_nodes());
    const auto digest = [&] {
      Digest d;
      for (NodeId v = 0; v < g.num_nodes(); ++v) d.add(state.color(v));
      return d.h;
    };
    EXPECT_GT(
        aborted_calls_checked(coloring::make_spec(g, state), digest, 2), 0u);
  }
  {
    SCOPED_TRACE("sssp");
    const WeightedGraph wg = weighted_graph(120, 6, 42);
    sssp::DistanceTable dist(wg.num_nodes(), 0);
    const auto digest = [&] {
      Digest d;
      for (const double x : dist.all()) d.add_double(x);
      return d.h;
    };
    EXPECT_GT(aborted_calls_checked(sssp::make_spec(wg, dist), digest, 3), 0u);
  }
  {
    SCOPED_TRACE("boruvka");
    boruvka::ContractionGraph graph(120, boruvka_edges(120, 6, 43));
    const auto digest = [&] {
      Digest d;
      for (NodeId v = 0; v < graph.num_nodes(); ++v) {
        d.add(static_cast<std::uint64_t>(graph.is_alive(v)));
        d.add(static_cast<std::uint64_t>(graph.has_choice(v)));
        // Hash map order is not state: sum the entries' own digests.
        std::uint64_t entries = 0;
        for (const auto& [x, w] : graph.adjacency(v)) {
          Digest e;
          e.add(x);
          e.add_double(w);
          entries += e.h;
        }
        d.add(entries);
      }
      d.add_double(graph.chosen_weight());
      return d.h;
    };
    EXPECT_GT(aborted_calls_checked(boruvka::make_spec(graph), digest, 4), 0u);
  }
  {
    SCOPED_TRACE("maxflow");
    maxflow::FlowNetwork net = layered_network(44);
    maxflow::PushRelabelState state(net.num_nodes(), 0);
    const auto digest = [&] {
      Digest d;
      for (NodeId v = 0; v < net.num_nodes(); ++v) {
        d.add_double(state.excess(v));
        d.add(static_cast<std::uint64_t>(state.height(v)));
        for (const auto& a : net.arcs(v)) d.add_double(a.flow);
      }
      return d.h;
    };
    EXPECT_GT(aborted_calls_checked(
                  maxflow::make_spec(net, state, 0, net.num_nodes() - 1),
                  digest, 5),
              0u);
  }
  {
    SCOPED_TRACE("sp");
    Rng sp_rng(45);
    const sp::Formula formula = sp::random_ksat(40, 80, 3, sp_rng);
    sp::SurveyState state(formula, sp_rng);
    const auto digest = [&] {
      Digest d;
      for (std::uint32_t a = 0; a < formula.num_clauses(); ++a) {
        const auto slots =
            static_cast<std::uint32_t>(formula.clause(a).literals.size());
        for (std::uint32_t s = 0; s < slots; ++s) {
          d.add_double(state.eta(a, s));
        }
      }
      return d.h;
    };
    EXPECT_GT(aborted_calls_checked(sp::make_spec(state, 1e-2), digest, 6),
              0u);
  }
  {
    SCOPED_TRACE("dmr");
    auto [mesh, q] = refinement_input(80, 46);
    // Triangle slots only: the point a task adds before its cavity walk
    // is an append to the mutex-guarded arena, not shared state.
    const auto digest = [&mesh = *mesh] {
      Digest d;
      for (dmr::TriId t = 0; t < mesh.num_triangle_slots(); ++t) {
        const dmr::Triangle& tri = mesh.tri(t);
        for (int i = 0; i < 3; ++i) {
          d.add(tri.v[static_cast<std::size_t>(i)]);
          d.add(tri.nbr[static_cast<std::size_t>(i)]);
        }
        d.add(static_cast<std::uint64_t>(tri.alive));
      }
      return d.h;
    };
    EXPECT_GT(aborted_calls_checked(dmr::make_spec(*mesh, q), digest, 7), 0u);
  }
  {
    SCOPED_TRACE("cells");
    const auto effects = cell_effects(47, 200, 32);
    std::vector<std::int64_t> cells(32, 0);
    const auto digest = [&] {
      Digest d;
      for (const std::int64_t c : cells) d.add(static_cast<std::uint64_t>(c));
      return d.h;
    };
    EXPECT_GT(
        aborted_calls_checked(cell_spec(effects, cells), digest, 8), 0u);
  }
}

// ---------------------------------------------------------------------------
// Kill-and-resume: per-backend snapshot round trips
// ---------------------------------------------------------------------------

struct ResumableRig {
  std::vector<std::int64_t> cells = std::vector<std::int64_t>(kCells, 0);
  ThreadPool pool{1};
  SpeculativeExecutor ex;

  ResumableRig(sched::Backend backend, std::uint64_t seed)
      : ex(pool, kCells, cell_operator(cells), seed, options_for(backend)) {
    if (backend == sched::Backend::kChromatic) {
      ex.set_footprint_function(cell_footprint());
    }
  }
};

TEST(KillResume, EveryBackendRoundTripsByteIdentically) {
  for (const auto backend :
       {sched::Backend::kRandom, sched::Backend::kChromatic}) {
    SCOPED_TRACE(sched::backend_name(backend));

    // Reference run: snapshot mid-flight, then record the suffix.
    ResumableRig a(backend, 555);
    a.ex.push_initial(all_tasks(kTasks));
    for (int r = 0; r < 3 && !a.ex.done(); ++r) (void)a.ex.run_round(24);
    snapshot::Writer mid;
    a.ex.save_state(mid);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> suffix_a;
    int guard = 0;
    while (!a.ex.done() && guard++ < 10000) {
      const RoundStats s = a.ex.run_round(24);
      suffix_a.emplace_back(s.launched, s.committed);
    }
    ASSERT_TRUE(a.ex.done());
    snapshot::Writer end_a;
    a.ex.save_state(end_a);

    // Resumed run: a FRESH executor restored from the mid snapshot must
    // replay the suffix byte-for-byte.
    ResumableRig b(backend, 555);
    snapshot::Reader r(mid.bytes());
    b.ex.load_state(r);
    EXPECT_NO_THROW(r.expect_end());
    std::vector<std::pair<std::uint32_t, std::uint32_t>> suffix_b;
    guard = 0;
    while (!b.ex.done() && guard++ < 10000) {
      const RoundStats s = b.ex.run_round(24);
      suffix_b.emplace_back(s.launched, s.committed);
    }
    ASSERT_TRUE(b.ex.done());
    snapshot::Writer end_b;
    b.ex.save_state(end_b);

    EXPECT_EQ(suffix_a, suffix_b);
    EXPECT_EQ(end_a.bytes(), end_b.bytes());
  }
}

TEST(KillResume, BackendMismatchIsRejected) {
  ResumableRig a(sched::Backend::kRandom, 777);
  a.ex.push_initial(all_tasks(kTasks));
  (void)a.ex.run_round(16);
  snapshot::Writer w;
  a.ex.save_state(w);

  ResumableRig b(sched::Backend::kChromatic, 777);
  snapshot::Reader r(w.bytes());
  try {
    b.ex.load_state(r);
    FAIL() << "expected SnapshotError{kMismatch}";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_EQ(e.kind(), snapshot::SnapshotError::Kind::kMismatch);
  }
}

// ---------------------------------------------------------------------------
// Configuration error paths
// ---------------------------------------------------------------------------

TEST(SchedulerConfig, ChromaticRequiresFootprintFunction) {
  ThreadPool pool(1);
  std::vector<std::int64_t> cells(kCells, 0);
  SpeculativeExecutor ex(pool, kCells, cell_operator(cells), 1,
                         options_for(sched::Backend::kChromatic));
  std::vector<TaskId> tasks{1, 2, 3};
  EXPECT_THROW(ex.push_initial(tasks), std::logic_error);
}

TEST(SchedulerConfig, FootprintFunctionNeedsChromaticBackend) {
  ThreadPool pool(1);
  std::vector<std::int64_t> cells(kCells, 0);
  SpeculativeExecutor ex(pool, kCells, cell_operator(cells), 1,
                         options_for(sched::Backend::kRandom));
  EXPECT_THROW(ex.set_footprint_function(cell_footprint()),
               std::logic_error);
}

TEST(SchedulerConfig, WorklistKnobsAreRandomBackendOnly) {
  ThreadPool pool(1);
  std::vector<std::int64_t> cells(kCells, 0);
  RoundOptions opts;
  opts.worklist = WorklistPolicy::kFifo;
  opts.scheduler = sched::Backend::kChromatic;
  EXPECT_THROW(SpeculativeExecutor(pool, kCells, cell_operator(cells), 1,
                                   opts),
               std::invalid_argument);
}

TEST(SchedulerConfig, BackendNamesRoundTrip) {
  using sched::Backend;
  EXPECT_EQ(sched::parse_backend("random"), Backend::kRandom);
  EXPECT_EQ(sched::parse_backend("chromatic"), Backend::kChromatic);
  EXPECT_FALSE(sched::parse_backend("bogus").has_value());
  EXPECT_FALSE(sched::parse_backend("").has_value());
  // The retired relaxed backend is an unknown name like any other.
  EXPECT_FALSE(sched::parse_backend("relaxed").has_value());
  for (const auto b : {Backend::kRandom, Backend::kChromatic}) {
    EXPECT_EQ(sched::parse_backend(sched::backend_name(b)), b);
  }
}

}  // namespace
}  // namespace optipar
