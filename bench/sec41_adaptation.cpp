// SEC41 — the paper's §4.1 adaptation claims, measured:
//   (a) convergence speed from m0 = 2 on a stationary random CC graph for
//       every controller (hybrid / A / B / bisection / AIMD / fixed);
//   (b) the Lonestar-style DMR ramp ("no parallelism to one thousand
//       parallel tasks in ~30 steps") on the refining workload, and how
//       closely each controller's m_t follows it;
//   (c) re-convergence after abrupt phase shifts in available parallelism.
//
// Usage: sec41_adaptation [--n=2000] [--d=16] [--rho=0.25] [--steps=240]
#include <iostream>

#include "bench_common.hpp"
#include "model/conflict_ratio.hpp"
#include "sim/profile.hpp"

using namespace optipar;

namespace {

const std::vector<std::string> kControllers = {
    "hybrid", "recurrence-A", "recurrence-B", "bisection", "aimd", "pid",
    "ewma", "fixed-8", "fixed-256"};

}  // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const auto n = static_cast<NodeId>(opt.get_int("n", 2000));
  const auto d = static_cast<std::uint32_t>(opt.get_int("d", 16));
  const double rho = opt.get_double("rho", 0.25);
  const auto steps = static_cast<std::uint32_t>(opt.get_int("steps", 240));
  Rng rng(opt.get_int("seed", 3));

  // ------------------------------------------------ (a) convergence race
  bench::banner("(a) controller race on stationary G(n, nd/2), rho=" +
                std::to_string(rho));
  const auto g = gen::random_with_average_degree(n, d, rng);
  const auto mu = find_mu(g, rho, 300, rng);
  bench::note("reference operating point mu ~= " + std::to_string(mu));
  Table race({"controller", "converged_at", "steady_mean_r",
              "steady_rms_m_err", "wasted_fraction"});
  std::vector<std::string> racers = kControllers;
  racers.push_back("fixed-" + std::to_string(mu));  // the offline oracle
  for (const auto& name : racers) {
    ControllerParams p;
    p.rho = rho;
    p.m_max = 4096;
    auto c = bench::controller_or_exit(name, p);
    StationaryWorkload w(g);
    RunLoopConfig cfg;
    cfg.max_steps = steps;
    Rng run_rng(17);
    const auto trace = run_controlled(*c, w, cfg, run_rng);
    const auto s = bench::summarize(c->name(), trace, mu, 0.30);
    race.add_row({c->name(),
                  static_cast<std::int64_t>(
                      s.convergence_step >= trace.steps.size()
                          ? -1
                          : static_cast<std::int64_t>(s.convergence_step)),
                  s.mean_ratio_steady, s.rms_error, s.wasted});
  }
  race.print(std::cout);
  bench::note("(-1 = never entered the mu +/- 30% band; fixed-" +
              std::to_string(mu) +
              " is the offline oracle that knows mu in advance)");

  // ------------------------------------------------ (b) the DMR ramp
  bench::banner("(b) refining workload: available parallelism ramp");
  RefiningParams rp;
  rp.seed_nodes = 8;
  rp.children = 3;
  rp.attach_neighbors = 2;
  rp.total_budget = 60000;
  {
    Rng prof_rng(23);
    RefiningWorkload w(rp, prof_rng);
    const auto profile = parallelism_profile(w, 60, prof_rng);
    Table ramp({"step", "pending_tasks", "executed_parallel"});
    for (const auto& pt : profile) {
      if (pt.step % 4 == 0) {
        ramp.add_row({static_cast<std::int64_t>(pt.step),
                      static_cast<std::int64_t>(pt.available),
                      static_cast<std::int64_t>(pt.executed)});
      }
    }
    ramp.print(std::cout);
    std::cout << "peak executed parallelism: " << profile_peak(profile)
              << ", steps to half of peak: "
              << steps_to_fraction_of_peak(profile, 0.5)
              << " (paper cites DMR: ~1000 tasks within ~30 steps)\n";
  }

  bench::banner("(b') controllers riding the ramp (m_t growth)");
  Table ride({"controller", "m_at_10", "m_at_30", "m_at_60", "max_m",
              "mean_r", "wasted"});
  for (const auto& name : kControllers) {
    ControllerParams p;
    p.rho = rho;
    p.m_max = 8192;
    auto c = bench::controller_or_exit(name, p);
    Rng run_rng(29);
    RefiningWorkload w(rp, run_rng);
    RunLoopConfig cfg;
    cfg.max_steps = 80;
    const auto trace = run_controlled(*c, w, cfg, run_rng);
    auto m_at = [&](std::size_t i) {
      return static_cast<std::int64_t>(
          i < trace.steps.size() ? trace.steps[i].m : 0);
    };
    std::uint32_t max_m = 0;
    for (const auto& s : trace.steps) max_m = std::max(max_m, s.m);
    ride.add_row({c->name(), m_at(10), m_at(30), m_at(60),
                  static_cast<std::int64_t>(max_m),
                  trace.mean_conflict_ratio(), trace.wasted_fraction()});
  }
  ride.print(std::cout);

  // ------------------------------------------------ (c) phase shifts
  bench::banner("(c) abrupt phase shifts: dense -> sparse -> dense");
  {
    Rng phase_rng(31);
    auto make_workload = [&]() {
      std::vector<PhaseShiftWorkload::Stage> stages;
      stages.push_back({80, gen::union_of_cliques(n - n % 60, 59)});
      stages.push_back({80, gen::random_with_average_degree(n, 2, phase_rng)});
      stages.push_back({80, gen::union_of_cliques(n - n % 60, 59)});
      return PhaseShiftWorkload(std::move(stages));
    };
    Table shift({"controller", "m_end_dense1", "m_end_sparse", "m_end_dense2",
                 "mean_r_overall"});
    for (const auto& name : kControllers) {
      ControllerParams p;
      p.rho = rho;
      p.m_max = 4096;
      auto c = bench::controller_or_exit(name, p);
      auto w = make_workload();
      RunLoopConfig cfg;
      cfg.max_steps = 240;
      Rng run_rng(37);
      const auto trace = run_controlled(*c, w, cfg, run_rng);
      auto m_at = [&](std::size_t i) {
        return static_cast<std::int64_t>(
            i < trace.steps.size() ? trace.steps[i].m : 0);
      };
      shift.add_row({c->name(), m_at(79), m_at(159), m_at(239),
                     trace.mean_conflict_ratio()});
    }
    shift.print(std::cout);
    bench::note(
        "expected: adaptive controllers shrink m in dense phases, blow it "
        "up in the sparse phase, and re-shrink — fixed ones cannot.");
  }
  return 0;
}
