// Adaptive-precision estimation of the conflict-ratio curve. The fixed
// `trials` estimators in conflict_ratio.hpp spend the same number of
// permutation sweeps whether the graph's abort counts have converged after
// 50 sweeps or still swing after 5000. This engine replaces "run T trials"
// with "run until the 95% CI half-width on r̄(m) is <= epsilon", and stacks
// three variance levers on top of the stopping rule:
//
//   * Batched sequential sampling — sweeps run in fixed-size batches and
//     convergence is checked only at batch boundaries, so the trial count
//     is a deterministic function of (seed, config).
//   * Antithetic pairing — each statistical sample averages the sweep of a
//     drawn permutation π and of reverse(π) (which is itself uniform, so
//     the estimator stays unbiased). Negatively correlated pair members
//     cancel noise; at worst a pair behaves like two independent sweeps.
//   * Control variates from theory.hpp's closed forms — every connected
//     component that is a clique K_c has an exactly known expected abort
//     contribution at every prefix m (the per-component form behind
//     Thm. 3: E = m·c/n − (1 − Π_{i<m} (n−c−i)/(n−i))). Subtracting the
//     per-sweep clique aborts and adding back the exact expectation leaves
//     the estimate unbiased while removing all variance contributed by
//     clique components — on K_d^n itself the estimator becomes exact and
//     stops at the first batch.
//
// The engine can also relabel the graph internally (graph/relabel.hpp) so
// sweeps traverse a cache-friendly CSR; every statistic it reports is
// label-invariant and the applied map is returned for callers that need to
// translate NodeIds.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/relabel.hpp"
#include "model/conflict_ratio.hpp"
#include "support/stats.hpp"

namespace optipar {

namespace telemetry {
class TimerSet;
}  // namespace telemetry

struct AdaptiveConfig {
  /// Target 95% CI half-width on r̄(m), enforced at every m in [1, n].
  double epsilon = 0.005;
  /// Samples accumulated before the first convergence check (>= 2 so the
  /// variance is defined). An antithetic pair is ONE sample (two sweeps).
  std::uint32_t min_samples = 16;
  /// Samples added between consecutive convergence checks.
  std::uint32_t batch_samples = 16;
  /// Hard cap on permutation sweeps (the cost unit); the engine stops
  /// unconverged rather than exceed it.
  std::uint32_t max_sweeps = 1u << 20;
  bool antithetic = true;
  bool control_variates = true;
  /// Internal node relabeling applied before sweeping (statistics are
  /// label-invariant; the map is reported in the result).
  RelabelOrder relabel = RelabelOrder::kNone;
  /// Optional profiling sink (DESIGN.md §10): batch sweep work accumulates
  /// into "estimator.sweeps", and "estimator.merge" times only the
  /// per-batch CI scan (the name stays so `curve --metrics-out` keeps its
  /// series). Non-owning; nullptr (the default) disables all clock reads.
  /// Profiling never affects the sample stream or the stopping decision.
  telemetry::TimerSet* timers = nullptr;

  [[nodiscard]] std::uint32_t sweeps_per_sample() const noexcept {
    return antithetic ? 2u : 1u;
  }
};

/// Exact expected abort contribution of clique-shaped connected components,
/// used as a control variate (and, on K_d^n, reproducing Thm. 3 exactly).
struct CliqueControlVariate {
  static constexpr std::uint32_t kNotClique = 0xffffffffu;
  /// Per node: dense clique-component id, or kNotClique. Components of
  /// size 1 contribute exactly zero aborts and are left unmarked.
  std::vector<std::uint32_t> clique_comp;
  std::uint32_t num_clique_comps = 0;
  std::uint32_t clique_nodes = 0;
  /// expected_aborts[m] = E[aborts at prefix m from clique components],
  /// m = 0..n, in closed form.
  std::vector<double> expected_aborts;

  [[nodiscard]] bool active() const noexcept { return num_clique_comps > 0; }
};

[[nodiscard]] CliqueControlVariate build_clique_control_variate(
    const CsrGraph& g);

/// Result of an adaptive curve estimation. `curve` holds the (possibly
/// control-variate-adjusted, pair-averaged) per-m statistics; its means and
/// CIs are unbiased estimates of the same quantities the fixed-trial
/// estimator targets.
struct AdaptiveCurve {
  ConflictCurve curve;
  std::uint32_t sweeps = 0;   ///< permutation sweeps actually executed
  std::uint32_t samples = 0;  ///< statistical samples (pair = 1 sample)
  bool converged = false;     ///< worst_ci <= epsilon at stop
  double worst_ci = 0.0;      ///< max over m of the r̄(m) CI at stop
  std::uint32_t worst_m = 0;  ///< argmax of the above
  double clique_node_fraction = 0.0;  ///< share of nodes covered by the CV
  Relabeling map;             ///< internal relabeling (identity if none)
};

/// Adaptive estimation on one split() stream of Rng(seed). Deterministic
/// given (seed, config).
[[nodiscard]] AdaptiveCurve estimate_conflict_curve_adaptive(
    const CsrGraph& g, const AdaptiveConfig& config, std::uint64_t seed);

/// Adaptive point estimate at a single m: rounds of m random launches until
/// the CI on r̄(m) is <= epsilon. Antithetic pairing reverses the commit
/// order of the same active set; the control variate adjusts by the exact
/// expected clique-component aborts at that m.
struct AdaptivePoint {
  StreamingStats r;          ///< per-sample aborted/m (adjusted)
  StreamingStats committed;  ///< per-sample committed count (adjusted)
  std::uint32_t rounds = 0;  ///< simulated rounds (pair = 2 rounds)
  std::uint32_t samples = 0;
  bool converged = false;
};

[[nodiscard]] AdaptivePoint estimate_round_point_adaptive(
    const CsrGraph& g, std::uint32_t m, const AdaptiveConfig& config,
    std::uint64_t seed);

/// μ(ρ) read off an adaptively estimated curve, with the curve attached so
/// callers can report precision and cost.
struct MuEstimate {
  std::uint32_t mu = 1;
  AdaptiveCurve curve;
};

[[nodiscard]] MuEstimate find_mu_adaptive(const CsrGraph& g, double rho,
                                          const AdaptiveConfig& config,
                                          std::uint64_t seed);

}  // namespace optipar
