// Scheduler backend contracts (DESIGN.md §14). Four families:
//  * random — the extracted backend replays the legacy constructor's draw
//    byte-for-byte at one lane (round stats, shared state, snapshot bytes);
//  * chromatic — zero aborts BY CONSTRUCTION on all seven application
//    kernels (coloring, MIS, SSSP, Boruvka, maxflow, survey propagation,
//    Delaunay refinement), with each app's correctness oracle intact;
//  * relaxed — the MultiQueue draw is a permutation of the pushed work
//    whose rank error stays within the expected O(queues) envelope;
//  * every backend serializes through save_state/load_state so a
//    kill-and-resume run replays the original byte-for-byte, and a
//    snapshot taken under one backend refuses to load under another.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "apps/boruvka/boruvka.hpp"
#include "apps/coloring/coloring.hpp"
#include "apps/dmr/delaunay.hpp"
#include "apps/dmr/refine.hpp"
#include "apps/maxflow/maxflow.hpp"
#include "apps/mis/mis.hpp"
#include "apps/sp/survey.hpp"
#include "apps/sssp/sssp.hpp"
#include "graph/algos.hpp"
#include "graph/generators.hpp"
#include "graph/weighted_graph.hpp"
#include "rt/spec_executor.hpp"
#include "sched/relaxed_scheduler.hpp"
#include "support/snapshot/snapshot.hpp"
#include "support/thread_pool.hpp"

namespace optipar {
namespace {

RoundOptions options_for(sched::Backend backend) {
  RoundOptions opts;
  opts.scheduler = backend;
  return opts;
}

/// Closed-neighborhood footprint — the declared mirror of the coloring /
/// MIS operators' acquisition set.
sched::FootprintFn closed_neighborhood(const CsrGraph& g) {
  return [&g](TaskId t, std::vector<std::uint32_t>& fp) {
    const auto v = static_cast<NodeId>(t);
    fp.push_back(v);
    for (const NodeId u : g.neighbors(v)) fp.push_back(u);
  };
}

/// Drive `ex` to drain with a per-round hook (invalidation, relabeling,
/// lock-table growth). Returns total aborts.
template <typename Hook>
std::uint64_t drain(SpeculativeExecutor& ex, std::uint32_t m, Hook hook) {
  int guard = 0;
  while (!ex.done() && guard++ < 20000) {
    hook(ex);
    (void)ex.run_round(m);
  }
  EXPECT_TRUE(ex.done());
  return ex.totals().aborted;
}

std::uint64_t drain(SpeculativeExecutor& ex, std::uint32_t m) {
  return drain(ex, m, [](SpeculativeExecutor&) {});
}

void push_all(SpeculativeExecutor& ex, std::size_t n) {
  std::vector<TaskId> tasks(n);
  std::iota(tasks.begin(), tasks.end(), TaskId{0});
  ex.push_initial(tasks);
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
    if (!ctx.acquire(a)) return;
    cells[a] += 1;
    ctx.on_abort([&cells, a] { cells[a] -= 1; });
    if (!ctx.acquire(b)) return;
    cells[b] -= 2;
    ctx.on_abort([&cells, b] { cells[b] += 2; });
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
  } else if (backend == sched::Backend::kRelaxed) {
    ex.set_priority_function([](TaskId t) { return t; });
  }
  push_all(ex, kTasks);
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
  ThreadPool pool(4);
  SpeculativeExecutor ex(pool, g.num_nodes(),
                         coloring::make_coloring_operator(g, state), 21,
                         options_for(sched::Backend::kChromatic));
  ex.set_footprint_function(closed_neighborhood(g));
  push_all(ex, g.num_nodes());
  EXPECT_EQ(drain(ex, 64), 0u);
  EXPECT_TRUE(state.is_proper(g));
}

TEST(ChromaticZeroAbort, MaximalIndependentSet) {
  Rng rng(8);
  const CsrGraph g = gen::random_with_average_degree(300, 12, rng);
  mis::MisState state(g.num_nodes());
  ThreadPool pool(4);
  SpeculativeExecutor ex(pool, g.num_nodes(),
                         mis::make_mis_operator(g, state), 22,
                         options_for(sched::Backend::kChromatic));
  ex.set_footprint_function(closed_neighborhood(g));
  push_all(ex, g.num_nodes());
  EXPECT_EQ(drain(ex, 64), 0u);
  EXPECT_TRUE(is_maximal_independent_set(g, state.in_set()));
}

TEST(ChromaticZeroAbort, Sssp) {
  Rng rng(9);
  const CsrGraph base = gen::random_with_average_degree(200, 6, rng);
  std::vector<WeightedEdgeTriple> edges;
  for (const auto& [u, v] : base.edges()) {
    edges.push_back({u, v, rng.uniform() * 10.0 + 0.1});
  }
  const WeightedGraph g =
      WeightedGraph::from_edges(base.num_nodes(), edges);
  sssp::DistanceTable dist(g.num_nodes(), 0);
  ThreadPool pool(4);
  SpeculativeExecutor ex(pool, g.num_nodes(),
                         sssp::make_sssp_operator(g, dist), 23,
                         options_for(sched::Backend::kChromatic));
  ex.set_footprint_function([&g](TaskId t, std::vector<std::uint32_t>& fp) {
    const auto v = static_cast<NodeId>(t);
    fp.push_back(v);
    for (const Arc& a : g.arcs(v)) fp.push_back(a.to);
  });
  push_all(ex, g.num_nodes());
  EXPECT_EQ(drain(ex, 48), 0u);
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
  Rng rng(10);
  const CsrGraph base = gen::random_with_average_degree(150, 6, rng);
  std::vector<boruvka::WeightedEdge> edges;
  for (const auto& [u, v] : base.edges()) {
    edges.push_back({u, v, rng.uniform() * 100.0 + 1e-3});
  }
  const double kruskal =
      boruvka::kruskal_mst_weight(base.num_nodes(), edges);
  boruvka::ContractionGraph graph(base.num_nodes(), edges);
  ThreadPool pool(4);
  SpeculativeExecutor ex(pool, base.num_nodes(),
                         boruvka::make_boruvka_operator(graph), 24,
                         options_for(sched::Backend::kChromatic));
  // Live closed neighborhood in the CONTRACTION graph: the operator
  // acquires v, its lightest neighbor, and all of N(v). The adjacency
  // mutates as supernodes merge, so the standing color assignment is
  // invalidated before every round.
  ex.set_footprint_function(
      [&graph](TaskId t, std::vector<std::uint32_t>& fp) {
        const auto v = static_cast<NodeId>(t);
        fp.push_back(v);
        for (const auto& [x, w] : graph.adjacency(v)) fp.push_back(x);
      });
  push_all(ex, base.num_nodes());
  const auto aborted = drain(
      ex, 32, [](SpeculativeExecutor& e) { e.invalidate_schedule(); });
  EXPECT_EQ(aborted, 0u);
  EXPECT_NEAR(graph.chosen_weight(), kruskal, 1e-6 * kruskal);
}

TEST(ChromaticZeroAbort, MaxflowPushRelabel) {
  // Layered random network s -> L1 -> L2 -> t with cross arcs.
  constexpr NodeId kN = 42;
  const NodeId s = 0;
  const NodeId t = kN - 1;
  maxflow::FlowNetwork net(kN);
  Rng rng(11);
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
  const double oracle = maxflow::edmonds_karp(net, s, t);
  net.reset_flow();

  maxflow::PushRelabelState state(kN, s);
  std::vector<TaskId> initial;
  auto& source_arcs = net.arcs(s);
  for (std::uint32_t i = 0; i < source_arcs.size(); ++i) {
    auto& a = source_arcs[i];
    if (a.capacity > 0.0) {
      net.push(s, i, a.capacity);
      state.set_excess(a.to, state.excess(a.to) + a.capacity);
      state.set_excess(s, state.excess(s) - a.capacity);
      if (a.to != t) initial.push_back(a.to);
    }
  }
  ThreadPool pool(4);
  SpeculativeExecutor ex(
      pool, kN, maxflow::make_push_relabel_operator(net, state, s, t), 25,
      options_for(sched::Backend::kChromatic));
  ex.set_footprint_function(
      [&net](TaskId task, std::vector<std::uint32_t>& fp) {
        const auto v = static_cast<NodeId>(task);
        fp.push_back(v);
        for (const auto& a : net.arcs(v)) fp.push_back(a.to);
      });
  ex.push_initial(initial);
  int rounds_since = 0;
  const auto aborted =
      drain(ex, 16, [&](SpeculativeExecutor&) {
        if (++rounds_since >= 64) {
          rounds_since = 0;
          maxflow::global_relabel(net, state, s, t);
        }
      });
  EXPECT_EQ(aborted, 0u);
  EXPECT_TRUE(net.is_feasible(s, t));
  EXPECT_NEAR(state.excess(t), oracle, 1e-9);
}

TEST(ChromaticZeroAbort, SurveyPropagation) {
  Rng rng(12);
  const sp::Formula formula = sp::random_ksat(60, 120, 3, rng);
  sp::SurveyState state(formula, rng);
  constexpr double kTolerance = 1e-2;

  // The clause-update operator, mirroring run_survey_propagation_adaptive:
  // acquire clause a plus every clause sharing a variable, recompute a's
  // surveys, re-push moved neighbors (duplicate-free via scheduled flags).
  std::vector<std::uint8_t> scheduled(formula.num_clauses(), 1);
  auto op = [&state, &formula, &scheduled](TaskId task,
                                           IterationContext& ctx) {
    const auto a = static_cast<std::uint32_t>(task);
    if (!ctx.acquire(a)) return;
    scheduled[a] = 0;
    ctx.on_abort([&scheduled, a] { scheduled[a] = 1; });
    std::set<std::uint32_t> neighborhood;
    for (const sp::Literal& lit : formula.clause(a).literals) {
      for (const std::uint32_t b : formula.clauses_of(lit.var)) {
        if (b != a) neighborhood.insert(b);
      }
    }
    for (const std::uint32_t b : neighborhood) {
      if (!ctx.acquire(b)) return;
    }
    const auto fresh = state.compute_clause(a);
    double delta = 0.0;
    for (std::uint32_t slot = 0; slot < fresh.size(); ++slot) {
      const double old = state.eta(a, slot);
      delta = std::max(delta, std::abs(fresh[slot] - old));
      if (fresh[slot] != old) {
        state.set_eta(a, slot, fresh[slot]);
        ctx.on_abort(
            [&state, a, slot, old] { state.set_eta(a, slot, old); });
      }
    }
    if (delta >= kTolerance) {
      for (const std::uint32_t b : neighborhood) {
        if (scheduled[b] == 0) {
          scheduled[b] = 1;
          ctx.on_abort([&scheduled, b] { scheduled[b] = 0; });
          ctx.push(b);
        }
      }
    }
  };

  ThreadPool pool(4);
  SpeculativeExecutor ex(pool, formula.num_clauses(), op, 26,
                         options_for(sched::Backend::kChromatic));
  ex.set_footprint_function(
      [&formula](TaskId task, std::vector<std::uint32_t>& fp) {
        const auto a = static_cast<std::uint32_t>(task);
        fp.push_back(a);
        for (const sp::Literal& lit : formula.clause(a).literals) {
          for (const std::uint32_t b : formula.clauses_of(lit.var)) {
            fp.push_back(b);
          }
        }
      });
  push_all(ex, formula.num_clauses());
  EXPECT_EQ(drain(ex, 24), 0u);
  for (std::uint32_t a = 0; a < formula.num_clauses(); ++a) {
    EXPECT_LT(state.clause_residual(a), kTolerance);
  }
}

TEST(ChromaticZeroAbort, DelaunayRefinement) {
  Rng rng(13);
  std::vector<dmr::Point2> pts;
  for (int i = 0; i < 120; ++i) {
    pts.push_back({rng.uniform() * 100.0, rng.uniform() * 100.0});
  }
  dmr::Mesh mesh;
  dmr::build_delaunay(mesh, pts, 16.0);
  dmr::RefineQuality q;
  q.min_angle_deg = 25.0;
  q.min_edge = 2.0;
  q.set_domain(pts);

  ThreadPool pool(4);
  SpeculativeExecutor ex(pool, mesh.num_triangle_slots(),
                         dmr::make_refine_operator(mesh, q), 27,
                         options_for(sched::Backend::kChromatic));
  // Declared footprint of a bad triangle: the Bowyer–Watson cavity + ring
  // of BOTH candidate insertion points (circumcenter, centroid). refine_one
  // falls back from the first to the second on degenerate insertions, so
  // declaring their union keeps the declaration a superset of whatever the
  // operator ends up locking. The mesh mutates every round: invalidate.
  ex.set_footprint_function(
      [&mesh, q](TaskId task, std::vector<std::uint32_t>& fp) {
        const auto t = static_cast<dmr::TriId>(task);
        fp.push_back(t);
        if (!dmr::is_bad(mesh, t, q)) return;
        const auto add = [&fp](const dmr::CavityFootprint& c) {
          for (const dmr::TriId tri : c.cavity) fp.push_back(tri);
          for (const dmr::TriId tri : c.ring) fp.push_back(tri);
        };
        const dmr::Point2 center = mesh.circumcenter_of(t);
        if (std::isfinite(center.x) && std::isfinite(center.y) &&
            q.in_domain(center)) {
          add(dmr::probe_cavity(mesh, center, t));
        }
        const dmr::Point2 centroid{
            (mesh.corner(t, 0).x + mesh.corner(t, 1).x +
             mesh.corner(t, 2).x) /
                3.0,
            (mesh.corner(t, 0).y + mesh.corner(t, 1).y +
             mesh.corner(t, 2).y) /
                3.0};
        add(dmr::probe_cavity(mesh, centroid, t));
      });
  const auto initial = dmr::bad_triangles(mesh, q);
  std::vector<TaskId> tasks(initial.begin(), initial.end());
  ex.push_initial(tasks);
  const auto aborted = drain(ex, 16, [&mesh](SpeculativeExecutor& e) {
    e.grow_items(mesh.num_triangle_slots());
    e.invalidate_schedule();
  });
  EXPECT_EQ(aborted, 0u);
  EXPECT_TRUE(dmr::bad_triangles(mesh, q).empty());
  EXPECT_TRUE(mesh.validate());
}

// ---------------------------------------------------------------------------
// Relaxed backend: bounded rank error
// ---------------------------------------------------------------------------

TEST(RelaxedScheduler, DrawIsAPermutationWithBoundedRankError) {
  sched::RelaxedScheduler rs(123, 4);  // 4 lanes x 4 = 16 queues
  rs.set_priority_function([](TaskId t) { return t; });
  constexpr std::size_t kN = 1000;
  std::vector<TaskId> tasks(kN);
  std::iota(tasks.begin(), tasks.end(), TaskId{0});
  Rng shuffle_rng(5);
  shuffle_rng.shuffle(std::span<TaskId>(tasks));
  rs.push(tasks);
  ASSERT_EQ(rs.size(), kN);

  std::vector<TaskId> active;
  Rng rng(99);
  ASSERT_EQ(rs.begin_round(kN, active, rng), kN);
  const std::set<TaskId> seen(active.begin(), active.end());
  EXPECT_EQ(seen.size(), kN);  // every task exactly once

  // Priority == task id, so the global rank of active[i] IS its id. The
  // MultiQueue analysis (PAPERS.md) gives O(queues) expected rank error
  // per pop; assert a generous deterministic envelope for this seed.
  const double q = static_cast<double>(rs.queue_count());
  double total = 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double err = std::abs(static_cast<double>(active[i]) -
                                static_cast<double>(i));
    total += err;
    worst = std::max(worst, err);
  }
  EXPECT_LE(total / static_cast<double>(kN), 2.0 * q);
  EXPECT_LE(worst, 16.0 * q);
}

TEST(RelaxedScheduler, ExecutorDrainsAndCommitsEverything) {
  const GoldenRun run = run_cells(false, sched::Backend::kRelaxed, 31);
  std::int64_t sum = 0;
  for (const auto c : run.cells) sum += c;
  EXPECT_EQ(sum, -static_cast<std::int64_t>(kTasks));  // +1 -2 per task
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
    } else if (backend == sched::Backend::kRelaxed) {
      ex.set_priority_function([](TaskId t) { return t; });
    }
  }
};

TEST(KillResume, EveryBackendRoundTripsByteIdentically) {
  for (const auto backend :
       {sched::Backend::kRandom, sched::Backend::kChromatic,
        sched::Backend::kRelaxed}) {
    SCOPED_TRACE(sched::backend_name(backend));

    // Reference run: snapshot mid-flight, then record the suffix.
    ResumableRig a(backend, 555);
    push_all(a.ex, kTasks);
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
  push_all(a.ex, kTasks);
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

TEST(SchedulerConfig, RelaxedRequiresPriorityFunction) {
  ThreadPool pool(1);
  std::vector<std::int64_t> cells(kCells, 0);
  SpeculativeExecutor ex(pool, kCells, cell_operator(cells), 1,
                         options_for(sched::Backend::kRelaxed));
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
  EXPECT_EQ(sched::parse_backend("relaxed"), Backend::kRelaxed);
  EXPECT_FALSE(sched::parse_backend("bogus").has_value());
  EXPECT_FALSE(sched::parse_backend("").has_value());
  for (const auto b :
       {Backend::kRandom, Backend::kChromatic, Backend::kRelaxed}) {
    EXPECT_EQ(sched::parse_backend(sched::backend_name(b)), b);
  }
}

}  // namespace
}  // namespace optipar
