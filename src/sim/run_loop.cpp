#include "sim/run_loop.hpp"

#include <algorithm>
#include <cmath>

#include "sim/step_simulator.hpp"

namespace optipar {

std::uint64_t Trace::total_committed() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : steps) sum += s.committed;
  return sum;
}

std::uint64_t Trace::total_aborted() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : steps) sum += s.aborted;
  return sum;
}

std::uint64_t Trace::total_retried() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : steps) sum += s.retried;
  return sum;
}

std::uint64_t Trace::total_quarantined() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : steps) sum += s.quarantined;
  return sum;
}

std::uint64_t Trace::total_injected() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : steps) sum += s.injected;
  return sum;
}

double Trace::wasted_fraction() const noexcept {
  const double aborted = static_cast<double>(total_aborted());
  const double launched = aborted + static_cast<double>(total_committed());
  return launched == 0.0 ? 0.0 : aborted / launched;
}

double Trace::mean_conflict_ratio(std::size_t from) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = from; i < steps.size(); ++i) {
    sum += steps[i].conflict_ratio();
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

std::size_t Trace::convergence_step(double mu_ref, double band,
                                    std::size_t hold) const {
  const double lo = mu_ref * (1.0 - band);
  const double hi = mu_ref * (1.0 + band);
  std::size_t streak = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto m = static_cast<double>(steps[i].m);
    if (m >= lo && m <= hi) {
      if (++streak >= hold) return i + 1 - streak;
    } else {
      streak = 0;
    }
  }
  return steps.size();
}

double Trace::rms_relative_error(double mu_ref, std::size_t from) const {
  double sum_sq = 0.0;
  std::size_t count = 0;
  for (std::size_t i = from; i < steps.size(); ++i) {
    const double rel =
        (static_cast<double>(steps[i].m) - mu_ref) / mu_ref;
    sum_sq += rel * rel;
    ++count;
  }
  return count == 0 ? 0.0 : std::sqrt(sum_sq / static_cast<double>(count));
}

Trace run_controlled(Controller& controller, Workload& workload,
                     const RunLoopConfig& config, Rng& rng) {
  Trace trace;
  std::uint32_t m = controller.initial_m();
  for (std::uint32_t t = 0; t < config.max_steps && !workload.done(); ++t) {
    StepRecord rec;
    rec.step = t;
    rec.m = m;
    rec.avg_degree = workload.average_degree();
    const std::uint32_t launch = std::min(m, workload.pending());
    const RoundOutcome outcome = run_round(workload, launch, rng);
    const RoundStats stats = outcome.stats();
    rec.launched = stats.launched;
    rec.committed = stats.committed;
    rec.aborted = stats.aborted;
    rec.pending_after = workload.pending();
    trace.steps.push_back(rec);
    m = controller.observe(stats);
  }
  return trace;
}

OperatingPoint find_operating_point(const CsrGraph& cc, double rho,
                                    const AdaptiveConfig& config,
                                    std::uint64_t seed) {
  const MuEstimate est = find_mu_adaptive(cc, rho, config, seed);
  OperatingPoint op;
  op.mu = est.mu;
  op.r_at_mu = est.curve.curve.r_bar(est.mu);
  op.ci_at_mu = est.curve.curve.r_bar_ci95(est.mu);
  op.sweeps = est.curve.sweeps;
  op.converged = est.curve.converged;
  return op;
}

}  // namespace optipar
