// ABL — ablations of Algorithm 1's design knobs (DESIGN.md §5):
//   1. averaging window T          (noise smoothing vs responsiveness)
//   2. hybrid thresholds α₀ / α₁   (vs pure-A and pure-B behavior)
//   3. r_min clamp                 (Recurrence B explosion guard)
//   4. the small-m regime          (paper's unshown separate tuning)
//   5. target ρ sweep              (10% … 40%)
// Metrics per configuration: convergence step to mu ± 25%, steady-state
// RMS m-error, steady mean conflict ratio, wasted work.
//
// Usage: ablation_controller [--n=2000] [--d=16] [--steps=280] [--reps=3]
#include <iostream>

#include "apps/app_spec.hpp"
#include "apps/mis/mis.hpp"
#include "bench_common.hpp"
#include "control/hybrid.hpp"
#include "model/conflict_ratio.hpp"

using namespace optipar;

namespace {

struct Metrics {
  double convergence = 0.0;
  double rms = 0.0;
  double steady_r = 0.0;
  double wasted = 0.0;
};

Metrics evaluate(const ControllerParams& p, const CsrGraph& g, double mu,
                 std::uint32_t steps, int reps, std::uint64_t seed) {
  Metrics m;
  for (int rep = 0; rep < reps; ++rep) {
    HybridController c(p);
    StationaryWorkload w(g);
    RunLoopConfig cfg;
    cfg.max_steps = steps;
    Rng rng(seed + static_cast<std::uint64_t>(rep) * 101);
    const auto trace = run_controlled(c, w, cfg, rng);
    const auto s = bench::summarize("hybrid", trace, mu, 0.25);
    m.convergence += static_cast<double>(
        std::min(s.convergence_step, trace.steps.size()));
    m.rms += s.rms_error;
    m.steady_r += s.mean_ratio_steady;
    m.wasted += s.wasted;
  }
  m.convergence /= reps;
  m.rms /= reps;
  m.steady_r /= reps;
  m.wasted /= reps;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const auto n = static_cast<NodeId>(opt.get_int("n", 2000));
  const auto d = static_cast<std::uint32_t>(opt.get_int("d", 16));
  const auto steps = static_cast<std::uint32_t>(opt.get_int("steps", 280));
  const int reps = static_cast<int>(opt.get_int("reps", 3));
  Rng rng(opt.get_int("seed", 5));

  const auto g = gen::random_with_average_degree(n, d, rng);
  const double rho = 0.25;
  const auto mu = static_cast<double>(find_mu(g, rho, 300, rng));
  bench::banner("ablation baseline: n=" + std::to_string(n) + ", d=" +
                std::to_string(d) + ", rho=0.25, mu~=" +
                std::to_string(static_cast<int>(mu)));

  ControllerParams base;
  base.rho = rho;
  base.m_max = 4096;

  auto row = [&](Table& t, const std::string& label,
                 const ControllerParams& p) {
    const auto m = evaluate(p, g, mu, steps, reps, 1234);
    t.add_row({label, m.convergence, m.rms, m.steady_r, m.wasted});
  };

  // 1. Averaging window T.
  {
    bench::banner("1. averaging window T");
    Table t({"T", "convergence_step", "steady_rms", "steady_r", "wasted"});
    for (const std::uint32_t T : {1u, 2u, 4u, 8u, 16u}) {
      auto p = base;
      p.T = T;
      row(t, std::to_string(T), p);
    }
    t.print(std::cout);
    bench::note("paper default T=4: small T reacts to noise, large T lags.");
  }

  // 2. Hybrid thresholds.
  {
    bench::banner("2. hybrid switch alpha0 / dead band alpha1");
    Table t({"config", "convergence_step", "steady_rms", "steady_r",
             "wasted"});
    {
      auto p = base;
      row(t, "paper (a0=0.25, a1=0.06)", p);
    }
    {
      auto p = base;
      p.alpha0 = 1e9;  // Recurrence B can never fire -> pure A
      row(t, "pure-A (a0=inf)", p);
    }
    {
      auto p = base;
      p.alpha0 = p.alpha1;  // B fires on any out-of-band deviation -> pure B
      row(t, "pure-B (a0=a1)", p);
    }
    {
      auto p = base;
      p.alpha1 = 0.0;  // no dead band: keep nudging forever
      row(t, "no dead band (a1=0)", p);
    }
    {
      auto p = base;
      p.alpha1 = 0.20;  // huge dead band: sloppy steady state
      row(t, "wide dead band (a1=0.20)", p);
    }
    t.print(std::cout);
  }

  // 3. r_min clamp.
  {
    bench::banner("3. r_min clamp for Recurrence B");
    Table t({"r_min", "convergence_step", "steady_rms", "steady_r",
             "wasted"});
    for (const double r_min : {0.001, 0.01, 0.03, 0.10}) {
      auto p = base;
      p.r_min = r_min;
      row(t, Table::format_cell(r_min, 3), p);
    }
    t.print(std::cout);
    bench::note(
        "tiny r_min lets m <- (rho/r)m explode past mu when r~0 is "
        "observed by chance; the paper clamps at 3%.");
  }

  // 4. Small-m regime on a low-parallelism graph.
  {
    bench::banner("4. small-m regime (low-parallelism workload, mu ~ 10)");
    const auto dense = gen::union_of_cliques(n - n % 40, 39);
    Rng mu_rng(11);
    const auto mu_dense =
        static_cast<double>(find_mu(dense, rho, 300, mu_rng));
    Table t({"small_m_regime", "convergence_step", "steady_rms", "steady_r",
             "wasted"});
    for (const bool on : {true, false}) {
      auto p = base;
      p.small_m_regime = on;
      Metrics m;
      for (int rep = 0; rep < reps; ++rep) {
        HybridController c(p);
        StationaryWorkload w(dense);
        RunLoopConfig cfg;
        cfg.max_steps = steps;
        Rng run_rng(99 + static_cast<std::uint64_t>(rep));
        const auto trace = run_controlled(c, w, cfg, run_rng);
        const auto s = bench::summarize("hybrid", trace, mu_dense, 0.25);
        m.convergence += static_cast<double>(
            std::min(s.convergence_step, trace.steps.size()));
        m.rms += s.rms_error;
        m.steady_r += s.mean_ratio_steady;
        m.wasted += s.wasted;
      }
      t.add_row({on ? "on" : "off", m.convergence / reps, m.rms / reps,
                 m.steady_r / reps, m.wasted / reps});
    }
    t.print(std::cout);
    std::cout << "mu(dense) ~= " << mu_dense << "\n";
  }

  // 5. rho sweep.
  {
    bench::banner("5. target conflict ratio rho sweep");
    Table t({"rho", "mu(rho)", "convergence_step", "steady_r", "wasted",
             "throughput(committed/step)"});
    Rng mu_rng(13);
    const auto mu_curve = estimate_conflict_curve(g, 300, mu_rng);
    for (const double r : {0.10, 0.20, 0.25, 0.30, 0.40}) {
      const auto mu_r = static_cast<double>(find_mu(mu_curve, r));
      auto p = base;
      p.rho = r;
      HybridController c(p);
      StationaryWorkload w(g);
      RunLoopConfig cfg;
      cfg.max_steps = steps;
      Rng run_rng(7);
      const auto trace = run_controlled(c, w, cfg, run_rng);
      const auto s = bench::summarize("hybrid", trace, mu_r, 0.25);
      t.add_row({r, mu_r,
                 static_cast<double>(
                     std::min(s.convergence_step, trace.steps.size())),
                 s.mean_ratio_steady, s.wasted,
                 static_cast<double>(trace.total_committed()) /
                     static_cast<double>(trace.steps.size())});
    }
    t.print(std::cout);
    bench::note(
        "the paper recommends rho in [20%, 30%]: lower starves parallelism, "
        "higher burns work on rollbacks.");
  }

  // 0. The noise that motivates Algorithm 1's machinery: the per-round
  //    observation r_t has variance that explodes as m shrinks (§4.1's
  //    rationale for T-averaging and the separate small-m regime).
  {
    bench::banner("0. observation noise: std[r_t] vs m");
    Table t({"m", "mean_r", "std_r", "relative_noise"});
    Rng noise_rng(3);
    for (std::uint32_t m = 2; m <= 512; m *= 2) {
      const auto stats = estimate_r_at(g, m, 3000, noise_rng);
      t.add_row({static_cast<std::int64_t>(m), stats.mean(), stats.stddev(),
                 stats.mean() > 0 ? stats.stddev() / stats.mean() : 0.0});
    }
    t.print(std::cout);
    bench::note(
        "at m ~ 4 one round tells you almost nothing (relative noise > 1); "
        "hence the longer window and wider dead band below m_small.");
  }

  // 6. Worklist selection policy in the real runtime (the model assumes
  //    uniformly random task selection; FIFO/LIFO bias which conflicts the
  //    controller observes).
  {
    bench::banner("6. executor worklist policy (MIS on G(n, 6n))");
    Rng g_rng(21);
    const auto mis_graph = gen::random_with_average_degree(n, 12, g_rng);
    ThreadPool pool(4);
    Table t({"policy", "rounds", "wasted", "mean_r"});
    const std::pair<const char*, WorklistPolicy> policies[] = {
        {"random", WorklistPolicy::kRandom},
        {"fifo", WorklistPolicy::kFifo},
        {"lifo", WorklistPolicy::kLifo}};
    for (const auto& [label, policy] : policies) {
      mis::MisState state(mis_graph.num_nodes());
      const AppSpec spec = mis::make_spec(mis_graph, state);
      const auto ex =
          build_executor(pool, spec, 77, RoundOptions{.worklist = policy});
      auto p = base;
      HybridController c(p);
      const auto trace = drain(*ex, spec, c).trace;
      t.add_row({std::string(label),
                 static_cast<std::int64_t>(trace.steps.size()),
                 trace.wasted_fraction(), trace.mean_conflict_ratio()});
    }
    t.print(std::cout);
    bench::note(
        "random selection matches the paper's model; FIFO keeps the "
        "initial spatial order (neighbors adjacent in time -> more "
        "conflicts), LIFO chases freshly-pushed neighborhoods.");
  }
  return 0;
}
