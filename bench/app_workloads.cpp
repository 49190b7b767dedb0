// APP-DMR / APP-GRAPH — the paper's motivating applications executed on the
// real speculative runtime under different allocation policies:
//   * Delaunay mesh refinement (the paper's running example, §2)
//   * Boruvka MST (checked against a sequential Kruskal)
//   * maximal independent set
//   * greedy graph coloring
// For each app and controller: rounds to completion, wasted-work fraction,
// mean conflict ratio — the quantities Algorithm 1 trades off.
//
// Usage: app_workloads [--points=250] [--nodes=1500] [--threads=4]
#include <iostream>

#include "apps/app_spec.hpp"
#include "apps/boruvka/boruvka.hpp"
#include "apps/coloring/coloring.hpp"
#include "apps/dmr/refine.hpp"
#include "apps/maxflow/maxflow.hpp"
#include "apps/mis/mis.hpp"
#include "apps/sp/survey.hpp"
#include "apps/sssp/sssp.hpp"
#include "bench_common.hpp"
#include "graph/algos.hpp"
#include "graph/weighted_graph.hpp"

using namespace optipar;

namespace {

const std::vector<std::string> kControllers = {"hybrid", "recurrence-A",
                                               "bisection", "fixed-4",
                                               "fixed-64"};

std::vector<dmr::Point2> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<dmr::Point2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform() * 100.0, rng.uniform() * 100.0});
  }
  return pts;
}

void add_trace_row(Table& t, const std::string& app,
                   const std::string& controller, const Trace& trace,
                   const std::string& correctness) {
  t.add_row({app, controller, static_cast<std::int64_t>(trace.steps.size()),
             static_cast<std::int64_t>(trace.total_committed()),
             static_cast<std::int64_t>(trace.total_aborted()),
             trace.wasted_fraction(), trace.mean_conflict_ratio(),
             correctness});
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const auto points = static_cast<std::size_t>(opt.get_int("points", 250));
  const auto nodes = static_cast<NodeId>(opt.get_int("nodes", 1500));
  const auto threads = static_cast<std::size_t>(opt.get_int("threads", 4));
  ThreadPool pool(threads);
  const double rho = opt.get_double("rho", 0.25);

  Table results({"app", "controller", "rounds", "committed", "aborted",
                 "wasted", "mean_r", "correct"});

  // ------------------------------------------------------------- DMR
  bench::banner("Delaunay mesh refinement (" + std::to_string(points) +
                " points)");
  const auto pts = random_points(points, 42);
  dmr::RefineQuality q;
  q.min_angle_deg = 25.0;
  q.min_edge = 2.0;
  q.set_domain(pts);
  for (const auto& cname : kControllers) {
    dmr::Mesh mesh;
    dmr::build_delaunay(mesh, pts, 16.0);
    ControllerParams p;
    p.rho = rho;
    auto c = bench::controller_or_exit(cname, p);
    const AppSpec spec = dmr::make_spec(mesh, q);
    const auto trace = drain(*build_executor(pool, spec, 7), spec, *c).trace;
    const bool ok = dmr::bad_triangles(mesh, q).empty() && mesh.validate() &&
                    mesh.is_locally_delaunay();
    add_trace_row(results, "dmr", cname, trace, ok ? "yes" : "NO");
  }

  // --------------------------------------------------------- Boruvka
  bench::banner("Boruvka MST (" + std::to_string(nodes) + " nodes)");
  std::vector<boruvka::WeightedEdge> edges;
  {
    Rng rng(43);
    const auto g = gen::random_with_average_degree(nodes, 8, rng);
    for (const auto& [u, v] : g.edges()) {
      edges.push_back({u, v, rng.uniform() * 100.0 + 1e-3});
    }
  }
  const double kruskal = boruvka::kruskal_mst_weight(nodes, edges);
  for (const auto& cname : kControllers) {
    ControllerParams p;
    p.rho = rho;
    auto c = bench::controller_or_exit(cname, p);
    boruvka::ContractionGraph graph(nodes, edges);
    const AppSpec spec = boruvka::make_spec(graph);
    const auto trace = drain(*build_executor(pool, spec, 11), spec, *c).trace;
    const bool ok =
        std::abs(graph.chosen_weight() - kruskal) < 1e-6 * kruskal;
    add_trace_row(results, "boruvka", cname, trace, ok ? "yes" : "NO");
  }

  // ------------------------------------------------------------- MIS
  bench::banner("Maximal independent set");
  Rng mis_rng(44);
  const auto mis_graph = gen::random_with_average_degree(nodes, 12, mis_rng);
  for (const auto& cname : kControllers) {
    ControllerParams p;
    p.rho = rho;
    auto c = bench::controller_or_exit(cname, p);
    mis::MisState state(mis_graph.num_nodes());
    const AppSpec spec = mis::make_spec(mis_graph, state);
    const auto trace = drain(*build_executor(pool, spec, 13), spec, *c).trace;
    const bool ok = is_maximal_independent_set(mis_graph, state.in_set());
    add_trace_row(results, "mis", cname, trace, ok ? "yes" : "NO");
  }

  // -------------------------------------------------------- Coloring
  bench::banner("Greedy graph coloring");
  Rng col_rng(45);
  const auto col_graph = gen::rmat(nodes, nodes * 6, 0.55, 0.15, 0.15,
                                   col_rng);
  for (const auto& cname : kControllers) {
    ControllerParams p;
    p.rho = rho;
    auto c = bench::controller_or_exit(cname, p);
    coloring::ColoringState state(col_graph.num_nodes());
    const AppSpec spec = coloring::make_spec(col_graph, state);
    const auto trace = drain(*build_executor(pool, spec, 17), spec, *c).trace;
    const bool ok = state.is_proper(col_graph) &&
                    state.colors_used() <= col_graph.max_degree() + 1;
    add_trace_row(results, "coloring", cname, trace, ok ? "yes" : "NO");
  }

  // ------------------------------------------------------------ SSSP
  bench::banner("SSSP by chaotic relaxation");
  {
    Rng rng(46);
    const auto skeleton = gen::random_with_average_degree(nodes, 6, rng);
    std::vector<WeightedEdgeTriple> wedges;
    for (const auto& [u, v] : skeleton.edges()) {
      wedges.push_back({u, v, rng.uniform() * 10.0 + 0.01});
    }
    const auto wg = WeightedGraph::from_edges(nodes, wedges);
    const auto reference = sssp::dijkstra(wg, 0);
    auto check = [&](const std::vector<double>& dist) {
      for (NodeId v = 0; v < nodes; ++v) {
        if (reference[v] != sssp::kUnreachable &&
            std::abs(dist[v] - reference[v]) > 1e-9) {
          return false;
        }
      }
      return true;
    };
    // Relaxation starts from the source alone; `worklist` picks the draw.
    auto run = [&](const std::string& cname, WorklistPolicy worklist) {
      ControllerParams p;
      p.rho = rho;
      auto c = bench::controller_or_exit(cname, p);
      sssp::DistanceTable dist(nodes, 0);
      AppSpec spec = sssp::make_spec(wg, dist);
      spec.initial = {0};
      spec.priority = sssp::distance_priority(dist);
      const auto ex =
          build_executor(pool, spec, 19, RoundOptions{.worklist = worklist});
      const auto trace = drain(*ex, spec, *c).trace;
      return std::pair{trace, check(dist.all())};
    };
    for (const auto& cname : kControllers) {
      const auto [trace, ok] = run(cname, WorklistPolicy::kRandom);
      add_trace_row(results, "sssp", cname, trace, ok ? "yes" : "NO");
    }
    // The soft-priority (OBIM-style) scheduler: same answer, far less
    // committed work than random order.
    const auto [trace, ok] = run("hybrid", WorklistPolicy::kPriority);
    add_trace_row(results, "sssp(prio)", "hybrid", trace, ok ? "yes" : "NO");
  }

  // --------------------------------------------------------- Max-flow
  bench::banner("Max-flow by speculative push-relabel");
  {
    Rng rng(47);
    const NodeId fn = nodes / 4;
    maxflow::FlowNetwork base(fn);
    for (NodeId v = 0; v + 1 < fn; ++v) {
      base.add_arc(v, v + 1, static_cast<double>(1 + rng.below(8)));
    }
    for (std::size_t e = 0; e < static_cast<std::size_t>(fn) * 3; ++e) {
      const auto u = static_cast<NodeId>(rng.below(fn));
      const auto v = static_cast<NodeId>(rng.below(fn));
      if (u != v) base.add_arc(u, v, static_cast<double>(1 + rng.below(12)));
    }
    const double reference = maxflow::edmonds_karp(base, 0, fn - 1);
    for (const auto& cname : kControllers) {
      maxflow::FlowNetwork net = base;  // fresh flow per controller
      net.reset_flow();
      ControllerParams p;
      p.rho = rho;
      auto c = bench::controller_or_exit(cname, p);
      maxflow::PushRelabelState state(fn, 0);
      const AppSpec spec = maxflow::make_spec(net, state, 0, fn - 1);
      const auto trace =
          drain(*build_executor(pool, spec, 23), spec, *c).trace;
      const bool ok = net.is_feasible(0, fn - 1) &&
                      std::abs(state.excess(fn - 1) - reference) < 1e-9;
      add_trace_row(results, "maxflow", cname, trace, ok ? "yes" : "NO");
    }
  }

  // --------------------------------------------- Survey propagation
  bench::banner("Survey propagation (random 3-SAT, ratio 3.0)");
  {
    Rng rng(48);
    const auto vars = static_cast<std::uint32_t>(nodes / 10);
    const sp::Formula formula = sp::random_ksat(vars, vars * 3, 3, rng);
    sp::SpConfig sp_config;
    for (const auto& cname : kControllers) {
      ControllerParams p;
      p.rho = rho;
      auto c = bench::controller_or_exit(cname, p);
      Rng solver_rng(49);
      const auto res =
          sp::solve_with_sid(formula, sp_config, solver_rng, c.get(), &pool);
      const bool ok =
          res.satisfied && formula.is_satisfied_by(res.assignment);
      add_trace_row(results, "sp", cname, res.trace, ok ? "yes" : "NO");
    }
  }

  bench::banner("summary (all apps, all controllers)");
  results.print(std::cout);
  bench::note(
      "expected shape: the hybrid matches the best fixed allocation's "
      "round count without its wasted work; fixed-64 burns rollbacks on "
      "the draining tail, fixed-4 crawls on the parallel middle.");
  if (opt.has("csv")) results.write_csv(opt.get("csv", "apps.csv"));
  return 0;
}
