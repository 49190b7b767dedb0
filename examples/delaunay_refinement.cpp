// Delaunay mesh refinement — the paper's running example (§2) — executed
// end-to-end on the speculative runtime with adaptive processor
// allocation: generate a point cloud, build the Delaunay triangulation,
// then repair all badly-shaped triangles by speculative cavity
// retriangulation while Algorithm 1 steers the round size.
//
// Run: ./examples/delaunay_refinement [--points=400] [--min-angle=25]
//      [--min-edge=2.0] [--threads=4] [--rho=0.25]
#include <iostream>

#include "apps/app_spec.hpp"
#include "apps/dmr/refine.hpp"
#include "control/hybrid.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

using namespace optipar;
using namespace optipar::dmr;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const auto n_points = static_cast<std::size_t>(opt.get_int("points", 400));
  const auto threads = static_cast<std::size_t>(opt.get_int("threads", 4));

  RefineQuality quality;
  quality.min_angle_deg = opt.get_double("min-angle", 25.0);
  quality.min_edge = opt.get_double("min-edge", 2.0);

  // 1. Synthetic input: a uniform point cloud over a 100x100 region.
  Rng rng(opt.get_int("seed", 2024));
  std::vector<Point2> pts;
  pts.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    pts.push_back({rng.uniform() * 100.0, rng.uniform() * 100.0});
  }
  quality.set_domain(pts);

  // 2. Initial Delaunay triangulation (sequential substrate).
  Timer build_timer;
  Mesh mesh;
  build_delaunay(mesh, pts, 16.0);
  std::cout << "built Delaunay triangulation of " << n_points << " points: "
            << mesh.num_alive_triangles() << " triangles in "
            << build_timer.millis() << " ms\n";
  const auto initially_bad = bad_triangles(mesh, quality);
  std::cout << "badly shaped triangles (min angle < "
            << quality.min_angle_deg << " deg): " << initially_bad.size()
            << "\n\n";

  // 3. Speculative refinement under the adaptive controller.
  ThreadPool pool(threads);
  ControllerParams params;
  params.rho = opt.get_double("rho", 0.25);
  HybridController controller(params);

  Timer refine_timer;
  const AppSpec spec = make_spec(mesh, quality);
  const Trace trace =
      drain(*build_executor(pool, spec, /*seed=*/7), spec, controller).trace;
  std::cout << "refinement finished in " << trace.steps.size()
            << " rounds (" << refine_timer.millis() << " ms)\n"
            << "  committed refinements: " << trace.total_committed()
            << "\n  aborted (rolled back): " << trace.total_aborted()
            << "\n  wasted-work fraction:  " << trace.wasted_fraction()
            << "\n  mean conflict ratio:   " << trace.mean_conflict_ratio()
            << "\n\n";

  std::cout << "final mesh: " << mesh.num_alive_triangles()
            << " triangles, " << mesh.num_points() << " points\n"
            << "  structurally valid:    "
            << (mesh.validate() ? "yes" : "NO") << "\n  locally Delaunay:      "
            << (mesh.is_locally_delaunay() ? "yes" : "NO")
            << "\n  remaining bad:         "
            << bad_triangles(mesh, quality).size() << "\n";

  // Minimum-angle distribution over the triangles the quality target
  // governs (interior and above the size floor; tiny slivers are exempted
  // by design — they are reported separately).
  Histogram hist(0.0, 90.0, 18);  // 5-degree bins
  std::size_t floor_exempt = 0;
  double worst_angle = 90.0;
  for (const TriId t : mesh.alive_triangles()) {
    const auto& tri = mesh.tri(t);
    if (tri.v[0] < kNumSuperVertices || tri.v[1] < kNumSuperVertices ||
        tri.v[2] < kNumSuperVertices) {
      continue;
    }
    if (mesh.shortest_edge_of(t) < quality.min_edge) {
      ++floor_exempt;
      continue;
    }
    const double degrees = mesh.min_angle_of(t) * 180.0 / 3.14159265358979;
    worst_angle = std::min(worst_angle, degrees);
    hist.add(degrees);
  }
  std::cout << "min-angle distribution (governed triangles) "
            << "[0..90 deg, 5-deg bins]:\n  |" << hist.ascii(18)
            << "|  worst=" << worst_angle
            << " deg (target " << quality.min_angle_deg
            << "), median=" << hist.quantile(0.5)
            << " deg\n  size-floor-exempt slivers: " << floor_exempt << "\n";

  // A short allocation trace, to see Algorithm 1 breathing.
  std::cout << "\nallocation trace (every 4th round):\nround  m  launched "
               "committed aborted r\n";
  for (const auto& s : trace.steps) {
    if (s.step % 4 == 0) {
      std::printf("%5u %3u %8u %9u %7u %.3f\n", s.step, s.m, s.launched,
                  s.committed, s.aborted, s.conflict_ratio());
    }
  }
  return 0;
}
