// MODEL-VS-RUNTIME — the validation that justifies DESIGN.md's
// substitution argument: extract the *actual* CC (conflict) graph of a real
// application's work-set, feed it to the paper's model (the Monte-Carlo
// r̄(m) estimator), and compare the prediction against the conflict ratio
// the speculative runtime really observes at the same allocation m.
//
//   * MIS / coloring tasks lock {v} ∪ N(v): their CC graph is the square
//     of the input graph.
//   * A DMR task locks its cavity + boundary ring: the CC graph comes from
//     probe_cavity footprint intersections.
//
// Expected shape: the model tracks the runtime closely; the runtime sits
// slightly above at large m because transiently-held locks of tasks that
// later abort can cascade extra aborts (the model charges only committed
// neighbors).
//
// Usage: model_vs_runtime [--n=800] [--d=8] [--points=250] [--reps=30]
#include <iostream>

#include "apps/app_spec.hpp"
#include "apps/dmr/refine.hpp"
#include "apps/mis/mis.hpp"
#include "bench_common.hpp"
#include "graph/algos.hpp"
#include "model/conflict_ratio.hpp"

using namespace optipar;

namespace {

std::vector<dmr::Point2> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<dmr::Point2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform() * 100.0, rng.uniform() * 100.0});
  }
  return pts;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const auto n = static_cast<NodeId>(opt.get_int("n", 800));
  const auto d = static_cast<std::uint32_t>(opt.get_int("d", 8));
  const auto points = static_cast<std::size_t>(opt.get_int("points", 250));
  const int reps = static_cast<int>(opt.get_int("reps", 30));
  ThreadPool pool(static_cast<std::size_t>(opt.get_int("threads", 4)));

  // ----------------------------------------------------------- MIS
  bench::banner("MIS on G(n, nd/2): model CC graph = square(G)");
  {
    Rng rng(1);
    const auto g = gen::random_with_average_degree(n, d, rng);
    const auto cc = square(g);
    bench::note("input: n=" + std::to_string(n) + ", d=" +
                std::to_string(g.average_degree()) +
                "; CC graph degree=" + std::to_string(cc.average_degree()));
    const auto predicted = estimate_conflict_curve(cc, 400, rng);

    Table t({"m", "model_r", "runtime_r", "runtime_ci95"});
    for (std::uint32_t m = 4; m <= std::min<NodeId>(n, 512); m *= 2) {
      StreamingStats observed;
      for (int rep = 0; rep < reps; ++rep) {
        mis::MisState state(g.num_nodes());
        const auto stats =
            build_executor(pool, mis::make_spec(g, state),
                           1000 + static_cast<std::uint64_t>(rep) * 17)
                ->run_round(m);
        observed.add(stats.conflict_ratio());
      }
      t.add_row({static_cast<std::int64_t>(m), predicted.r_bar(m),
                 observed.mean(), observed.ci95()});
    }
    t.print(std::cout);
  }

  // ----------------------------------------------------------- DMR
  bench::banner("DMR: model CC graph = cavity-footprint intersections");
  {
    const auto pts = random_points(points, 7);
    dmr::RefineQuality q;
    q.min_angle_deg = 25.0;
    q.min_edge = 2.0;
    q.set_domain(pts);

    dmr::Mesh probe_mesh;
    dmr::build_delaunay(probe_mesh, pts, 16.0);
    const auto bad = dmr::bad_triangles(probe_mesh, q);
    const auto cc = dmr::refinement_conflict_graph(probe_mesh, q, bad);
    bench::note("work-set: " + std::to_string(bad.size()) +
                " bad triangles; CC degree=" +
                std::to_string(cc.average_degree()));
    Rng rng(2);
    const auto predicted = estimate_conflict_curve(cc, 600, rng);

    Table t({"m", "model_r", "runtime_r", "runtime_ci95"});
    for (std::uint32_t m = 2; m <= cc.num_nodes(); m *= 2) {
      StreamingStats observed;
      for (int rep = 0; rep < std::max(4, reps / 3); ++rep) {
        dmr::Mesh mesh;  // fresh mesh per repetition (rounds mutate it)
        dmr::build_delaunay(mesh, pts, 16.0);
        const auto stats =
            build_executor(pool, dmr::make_spec(mesh, q),
                           2000 + static_cast<std::uint64_t>(rep) * 23)
                ->run_round(m);
        observed.add(stats.conflict_ratio());
      }
      t.add_row({static_cast<std::int64_t>(m), predicted.r_bar(m),
                 observed.mean(), observed.ci95()});
    }
    t.print(std::cout);
    bench::note(
        "the CC-graph abstraction (Fig. 1) predicts the real runtime's "
        "conflict ratio from structure alone — this is what lets the "
        "paper's controller analysis transfer to real workloads.");
  }
  return 0;
}
