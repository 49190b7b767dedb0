#include "model/conflict_ratio.hpp"

#include <algorithm>
#include <stdexcept>

#include "model/permutation_sweep.hpp"
#include "support/simd.hpp"

namespace optipar {

ConflictCurve estimate_conflict_curve(const CsrGraph& g, std::uint32_t trials,
                                      Rng& rng) {
  if (trials == 0) {
    throw std::invalid_argument("estimate_conflict_curve: trials == 0");
  }
  // The per-trial fold is the estimator's dominant cost (one divide-bound
  // Welford update per prefix length), so it runs structure-of-arrays
  // through simd::welford_step_u32 — every trial contributes one sample to
  // each of the n+1 accumulators, so they share a single sample count —
  // and folds back into StreamingStats at the end. The vector recurrence
  // is bit-identical to element-wise StreamingStats::add (simd.hpp), so
  // curve values, golden tests, and checkpoints are unchanged. All O(n)
  // buffers (permutation, sweep output, stamps) are reused across trials.
  const NodeId n = g.num_nodes();
  const std::size_t stats = static_cast<std::size_t>(n) + 1;
  std::vector<std::uint32_t> perm;
  SweepScratch scratch;
  PrefixSweep sweep;
  std::vector<double> mean(stats, 0.0);
  std::vector<double> m2(stats, 0.0);
  std::vector<double> mn(stats, 1e300);
  std::vector<double> mx(stats, -1e300);
  const simd::Isa isa = simd::active_isa();
  for (std::uint32_t t = 1; t <= trials; ++t) {
    rng.permutation_into(n, perm);
    sweep_full_permutation(g, perm, scratch, sweep);
    simd::welford_step_u32(mean.data(), m2.data(), mn.data(), mx.data(),
                           sweep.aborts_at_prefix.data(), stats,
                           static_cast<double>(t), isa);
  }
  ConflictCurve curve;
  curve.abort_stats.reserve(stats);
  for (std::size_t m = 0; m < stats; ++m) {
    curve.abort_stats.push_back(
        StreamingStats::from_moments(trials, mean[m], m2[m], mn[m], mx[m]));
  }
  return curve;
}

RoundPointEstimate estimate_round_point(const CsrGraph& g, std::uint32_t m,
                                        std::uint32_t trials, Rng& rng) {
  if (m == 0 || m > g.num_nodes()) {
    throw std::invalid_argument("estimate_round_point: bad m");
  }
  RoundPointEstimate est;
  Rng::SampleScratch sample_scratch;
  SweepScratch sweep_scratch;
  std::vector<NodeId> active;
  std::vector<std::uint8_t> outcome;
  for (std::uint32_t t = 0; t < trials; ++t) {
    rng.sample_without_replacement_into(g.num_nodes(), m, sample_scratch,
                                        active);
    round_outcome(g, active, sweep_scratch, outcome);
    const auto committed = static_cast<std::uint32_t>(
        std::count(outcome.begin(), outcome.end(), std::uint8_t{1}));
    est.r.add(static_cast<double>(m - committed) / static_cast<double>(m));
    est.committed.add(static_cast<double>(committed));
  }
  return est;
}

StreamingStats estimate_r_at(const CsrGraph& g, std::uint32_t m,
                             std::uint32_t trials, Rng& rng) {
  return estimate_round_point(g, m, trials, rng).r;
}

StreamingStats estimate_committed_at(const CsrGraph& g, std::uint32_t m,
                                     std::uint32_t trials, Rng& rng) {
  return estimate_round_point(g, m, trials, rng).committed;
}

std::uint32_t find_mu(const ConflictCurve& curve, double rho) {
  std::uint32_t mu = 1;
  for (std::uint32_t m = 1; m <= curve.max_m(); ++m) {
    if (curve.r_bar(m) <= rho) mu = m;
  }
  return mu;
}

std::uint32_t find_mu(const CsrGraph& g, double rho, std::uint32_t trials,
                      Rng& rng) {
  return find_mu(estimate_conflict_curve(g, trials, rng), rho);
}

}  // namespace optipar
