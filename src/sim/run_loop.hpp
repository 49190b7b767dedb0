// Couples a Controller to a Workload: the closed loop of §4. Produces the
// per-round Trace that Fig. 3, §4.1, and the ablation benches analyze.
#pragma once

#include <cstdint>

#include "control/controller.hpp"
#include "model/adaptive_estimator.hpp"
#include "sim/trace.hpp"
#include "sim/workloads.hpp"
#include "support/rng.hpp"

namespace optipar {

struct RunLoopConfig {
  std::uint32_t max_steps = 200;  ///< hard stop for non-draining workloads
};

/// Run the controller against the workload until the workload drains or
/// max_steps elapse. The controller's proposal is capped by the pending
/// work each round (you cannot launch more tasks than exist).
[[nodiscard]] Trace run_controlled(Controller& controller, Workload& workload,
                                   const RunLoopConfig& config, Rng& rng);

/// The reference operating point μ(ρ) the closed loop is judged against
/// (convergence bands, RMS error), estimated to a declared precision. The
/// fixed-trial habit of `find_mu(g, rho, 300, rng)` either wastes sweeps on
/// easy graphs or under-resolves μ on hard ones; this searches the curve
/// adaptively until every r̄(m) carries a CI half-width <= config.epsilon,
/// then reads off the largest m with r̄(m) <= rho.
struct OperatingPoint {
  std::uint32_t mu = 1;
  double r_at_mu = 0.0;      ///< estimated r̄(μ)
  double ci_at_mu = 0.0;     ///< 95% CI half-width on r̄(μ)
  std::uint32_t sweeps = 0;  ///< permutation sweeps spent
  bool converged = false;    ///< CI target met within the sweep budget
};

[[nodiscard]] OperatingPoint find_operating_point(const CsrGraph& cc,
                                                  double rho,
                                                  const AdaptiveConfig& config,
                                                  std::uint64_t seed);

}  // namespace optipar
