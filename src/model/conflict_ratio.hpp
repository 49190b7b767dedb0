// Monte-Carlo estimation of the paper's central quantities on arbitrary CC
// graphs: the conflict-ratio function r̄(m) (eq. 1), the expected abort
// count k̄(m), the expected committed count EM_m(G), and the operating point
// μ(ρ) = max{m : r̄(m) <= ρ} that the adaptive controller chases.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace optipar {

/// The full curve m -> (k̄(m), r̄(m), EM_m) with confidence intervals,
/// estimated from `trials` independent full-permutation sweeps. One sweep
/// feeds every m at once (see permutation_sweep.hpp), so the total cost is
/// trials * O(n + |E|).
struct ConflictCurve {
  /// stats[m] accumulates k(π, m) over trials; index 0 unused (always 0).
  std::vector<StreamingStats> abort_stats;

  [[nodiscard]] std::uint32_t max_m() const noexcept {
    return static_cast<std::uint32_t>(abort_stats.size()) - 1;
  }
  [[nodiscard]] double k_bar(std::uint32_t m) const {
    return abort_stats.at(m).mean();
  }
  [[nodiscard]] double r_bar(std::uint32_t m) const {
    return m == 0 ? 0.0 : k_bar(m) / m;
  }
  /// EM_m(G): expected committed tasks among m launched.
  [[nodiscard]] double expected_committed(std::uint32_t m) const {
    return static_cast<double>(m) - k_bar(m);
  }
  /// 95% CI half-width on r̄(m).
  [[nodiscard]] double r_bar_ci95(std::uint32_t m) const {
    return m == 0 ? 0.0 : abort_stats.at(m).ci95() / m;
  }
};

[[nodiscard]] ConflictCurve estimate_conflict_curve(const CsrGraph& g,
                                                    std::uint32_t trials,
                                                    Rng& rng);

/// Point estimates at a single m: both r̄(m) and EM_m(G) come from the same
/// per-trial round outcome (committed = m − aborted), so one simulation
/// feeds both statistics.
struct RoundPointEstimate {
  StreamingStats r;          // per-trial aborted / m
  StreamingStats committed;  // per-trial committed count
};

/// Simulate `trials` independent rounds of exactly m random launches and
/// accumulate both point statistics. Cheaper than the full curve when only
/// one m matters. The draw stream matches the historical estimate_r_at /
/// estimate_committed_at exactly (one sample per trial).
[[nodiscard]] RoundPointEstimate estimate_round_point(const CsrGraph& g,
                                                      std::uint32_t m,
                                                      std::uint32_t trials,
                                                      Rng& rng);

/// Point estimate of r̄(m) only (cheaper when the full curve is not needed:
/// each trial stops after m nodes).
[[nodiscard]] StreamingStats estimate_r_at(const CsrGraph& g, std::uint32_t m,
                                           std::uint32_t trials, Rng& rng);

/// Point estimate of EM_m(G) — expected committed among m random launches —
/// used for Thm. 2 / Example 1 validation.
[[nodiscard]] StreamingStats estimate_committed_at(const CsrGraph& g,
                                                   std::uint32_t m,
                                                   std::uint32_t trials,
                                                   Rng& rng);

/// The controller's ideal operating point: the largest m with r̄(m) <= rho
/// (r̄ is non-decreasing by Prop. 1, so this is well defined). Estimated by
/// a single high-trial-count curve evaluation.
[[nodiscard]] std::uint32_t find_mu(const CsrGraph& g, double rho,
                                    std::uint32_t trials, Rng& rng);

/// Read μ(ρ) off an already-estimated curve. Callers that need μ at several
/// thresholds (sweeps, ablations) estimate the curve once and query this.
[[nodiscard]] std::uint32_t find_mu(const ConflictCurve& curve, double rho);

}  // namespace optipar
