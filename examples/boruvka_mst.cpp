// Boruvka minimum spanning tree by speculative edge contraction, with the
// result cross-checked against a sequential Kruskal. Demonstrates how a
// morph algorithm (the graph itself mutates) runs on the optipar runtime
// and how the adaptive controller rides the shrinking parallelism as the
// graph contracts toward a single supernode.
//
// Run: ./examples/boruvka_mst [--nodes=2000] [--degree=8] [--threads=4]
#include <iostream>

#include "apps/app_spec.hpp"
#include "apps/boruvka/boruvka.hpp"
#include "control/hybrid.hpp"
#include "graph/generators.hpp"
#include "support/options.hpp"
#include "support/timer.hpp"

using namespace optipar;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const auto nodes = static_cast<NodeId>(opt.get_int("nodes", 2000));
  const double degree = opt.get_double("degree", 8.0);
  const auto threads = static_cast<std::size_t>(opt.get_int("threads", 4));

  // Random weighted graph with unique-ish weights.
  Rng rng(opt.get_int("seed", 99));
  const auto skeleton = gen::random_with_average_degree(nodes, degree, rng);
  std::vector<boruvka::WeightedEdge> edges;
  edges.reserve(skeleton.num_edges());
  for (const auto& [u, v] : skeleton.edges()) {
    edges.push_back({u, v, rng.uniform() * 1000.0 + 1e-6});
  }
  std::cout << "graph: " << nodes << " nodes, " << edges.size()
            << " weighted edges\n";

  Timer kruskal_timer;
  const double reference = boruvka::kruskal_mst_weight(nodes, edges);
  std::cout << "sequential Kruskal reference: weight = " << reference
            << " (" << kruskal_timer.millis() << " ms)\n";

  ThreadPool pool(threads);
  ControllerParams params;
  params.rho = opt.get_double("rho", 0.25);
  params.m_max = 2048;
  HybridController controller(params);

  Timer boruvka_timer;
  boruvka::ContractionGraph graph(nodes, edges);
  const AppSpec spec = boruvka::make_spec(graph);
  const Trace trace =
      drain(*build_executor(pool, spec, 31337), spec, controller).trace;
  const double weight = graph.chosen_weight();
  std::cout << "speculative Boruvka:          weight = " << weight << " ("
            << boruvka_timer.millis() << " ms)\n"
            << "  match: "
            << (std::abs(weight - reference) < 1e-6 * std::max(1.0, reference)
                    ? "EXACT"
                    : "MISMATCH!")
            << "\n  tree edges chosen: " << graph.chosen_count()
            << "\n  rounds: " << trace.steps.size()
            << "\n  wasted-work fraction: " << trace.wasted_fraction()
            << "\n  mean conflict ratio:  " << trace.mean_conflict_ratio()
            << "\n";

  std::cout << "\ncontraction trace (every 8th round):\nround    m pending "
               "committed aborted\n";
  for (const auto& s : trace.steps) {
    if (s.step % 8 == 0) {
      std::printf("%5u %4u %7u %9u %7u\n", s.step, s.m, s.pending_after,
                  s.committed, s.aborted);
    }
  }
  return 0;
}
