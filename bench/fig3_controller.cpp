// FIG3 — reproduces Figure 3 of the paper: convergence of the hybrid
// control algorithm vs one that only uses Recurrence A, on two different
// random CC graphs with n = 2000, target ρ = 20%, starting from m0 = 2.
// Expected shape (paper): the hybrid converges close to μ in ~15 temporal
// steps and stays stable; Recurrence A alone crawls.
//
// Usage: fig3_controller [--n=2000] [--d1=16] [--d2=8] [--rho=0.20]
//                        [--steps=120] [--csv=fig3.csv]
#include <iostream>

#include "bench_common.hpp"
#include "control/extra.hpp"
#include "control/hybrid.hpp"
#include "model/conflict_ratio.hpp"
#include "support/ascii_plot.hpp"

using namespace optipar;

namespace {

struct Run {
  std::string label;
  Trace trace;
  std::uint32_t mu;
};

Run run_on(const CsrGraph& g, const std::string& controller_name,
           double rho, std::uint32_t steps, std::uint32_t mu,
           std::uint64_t seed) {
  ControllerParams p;
  p.rho = rho;
  p.m0 = 2;
  p.m_max = 4096;
  std::unique_ptr<Controller> controller;
  if (controller_name == "hybrid+warmstart") {
    // Paper §4: with d known, Cor. 3 gives a safe initial allocation.
    controller = std::make_unique<HybridController>(
        with_warm_start(p, g.num_nodes(), g.average_degree()));
  } else {
    controller = bench::controller_or_exit(controller_name, p);
  }
  StationaryWorkload w(g);
  RunLoopConfig cfg;
  cfg.max_steps = steps;
  Rng rng(seed);
  Run run;
  run.label = controller_name;
  run.trace = run_controlled(*controller, w, cfg, rng);
  run.mu = mu;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const auto n = static_cast<NodeId>(opt.get_int("n", 2000));
  const auto d1 = static_cast<std::uint32_t>(opt.get_int("d1", 16));
  const auto d2 = static_cast<std::uint32_t>(opt.get_int("d2", 8));
  const double rho = opt.get_double("rho", 0.20);
  const auto steps = static_cast<std::uint32_t>(opt.get_int("steps", 120));
  const std::uint64_t seed = opt.get_int("seed", 7);

  bench::banner("Fig. 3 — hybrid vs Recurrence-A-only, n=" +
                std::to_string(n) + ", rho=" + std::to_string(rho));

  Rng rng(seed);
  std::vector<std::pair<std::string, CsrGraph>> graphs;
  graphs.emplace_back("random-d" + std::to_string(d1),
                      gen::random_with_average_degree(n, d1, rng));
  graphs.emplace_back("random-d" + std::to_string(d2),
                      gen::random_with_average_degree(n, d2, rng));

  std::vector<Run> runs;
  bench::PhaseClock phases;
  Table trace_table({"step", "graph", "controller", "m", "r"});
  for (const auto& [gname, g] : graphs) {
    ScopedTimer mu_timer(phases.acc("find-mu"));
    const auto mu = find_mu(g, rho, 300, rng);
    mu_timer.stop();
    bench::note(gname + ": mu(rho) ~= " + std::to_string(mu));
    for (const std::string cname :
         {"hybrid", "recurrence-A", "hybrid+warmstart"}) {
      ScopedTimer run_timer(phases.acc("controller-run"));
      auto run = run_on(g, cname, rho, steps, mu, seed + 1);
      run_timer.stop();
      for (const auto& s : run.trace.steps) {
        if (s.step < 60 || s.step % 10 == 0) {
          trace_table.add_row({static_cast<std::int64_t>(s.step), gname,
                               cname, static_cast<std::int64_t>(s.m),
                               s.conflict_ratio()});
        }
      }
      run.label = gname + "/" + cname;
      runs.push_back(std::move(run));
    }
  }
  trace_table.print(std::cout);

  // Terminal rendering of the m_t trajectories (first graph only).
  {
    AsciiPlot plot(72, 18);
    for (std::size_t i = 0; i < std::min<std::size_t>(2, runs.size()); ++i) {
      std::vector<double> xs, ys;
      for (const auto& s : runs[i].trace.steps) {
        xs.push_back(s.step);
        ys.push_back(s.m);
      }
      plot.add_series(runs[i].label, i == 0 ? '#' : '*', std::move(xs),
                      std::move(ys));
    }
    std::vector<double> mu_x = {0.0, static_cast<double>(steps - 1)};
    std::vector<double> mu_y = {static_cast<double>(runs[0].mu),
                                static_cast<double>(runs[0].mu)};
    plot.add_series("mu", '-', mu_x, mu_y);
    std::cout << "\nm_t vs step (graph 1):\n";
    plot.render(std::cout);
  }

  bench::banner("convergence summary (band: mu ± 30%)");
  Table summary({"run", "mu", "converged_at_step", "steady_mean_r",
                 "steady_rms_m_err", "wasted_fraction"});
  for (const auto& run : runs) {
    const auto s = bench::summarize(run.label, run.trace,
                                    static_cast<double>(run.mu), 0.30);
    summary.add_row({run.label, static_cast<std::int64_t>(run.mu),
                     static_cast<std::int64_t>(
                         static_cast<std::int64_t>(s.convergence_step)),
                     s.mean_ratio_steady, s.rms_error, s.wasted});
  }
  summary.print(std::cout);
  bench::note(
      "paper claim: hybrid reaches the mu neighborhood in ~15 steps from "
      "m0=2; Recurrence A alone is several times slower.");
  phases.report();

  if (opt.has("csv")) {
    trace_table.write_csv(opt.get("csv", "fig3.csv"));
  }
  return 0;
}
