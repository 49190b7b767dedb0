// Survey propagation (Braunstein–Mézard–Zecchina) on the CNF factor graph,
// with survey-inspired decimation (SID). The message-update tasks are
// amorphous-data-parallel: updating clause a's surveys reads the surveys of
// every clause sharing a variable with a, so overlapping neighborhoods
// conflict — exactly the workload shape the paper's controller targets.
// Both a sequential sweep solver and the speculative operator share the
// same update kernel.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "apps/app_spec.hpp"
#include "apps/sp/formula.hpp"

namespace optipar::sp {

/// Surveys η_{a→i} indexed by (clause, literal slot), plus the update
/// kernel. Message state is only written under the runtime's clause locks
/// in speculative mode. Holds a non-owning view of `formula`, which must
/// outlive the SurveyState.
class SurveyState {
 public:
  SurveyState(const Formula& formula, Rng& rng);
  SurveyState(Formula&&, Rng&) = delete;  // reject dangling temporaries

  [[nodiscard]] double eta(std::uint32_t clause, std::uint32_t slot) const {
    return eta_[clause][slot];
  }
  void set_eta(std::uint32_t clause, std::uint32_t slot, double value) {
    eta_[clause][slot] = value;
  }
  [[nodiscard]] const Formula& formula() const noexcept { return *formula_; }

  /// Recompute clause `a`'s outgoing surveys from the current state.
  /// Returns the new values (slot-indexed) without writing them.
  [[nodiscard]] std::vector<double> compute_clause(std::uint32_t a) const;

  /// Largest |new − old| if compute_clause(a) were applied.
  [[nodiscard]] double clause_residual(std::uint32_t a) const;

  /// Per-variable decimation biases (W+, W−, W0) from converged surveys.
  struct Bias {
    double plus = 0.0;
    double minus = 0.0;
    double zero = 1.0;

    [[nodiscard]] double polarization() const noexcept {
      return plus > minus ? plus - minus : minus - plus;
    }
    [[nodiscard]] bool prefers_true() const noexcept { return plus >= minus; }
  };
  [[nodiscard]] Bias bias(std::uint32_t var) const;

  /// Max survey magnitude — ~0 means the paramagnetic (trivial) state.
  [[nodiscard]] double max_eta() const;

 private:
  const Formula* formula_;
  std::vector<std::vector<double>> eta_;
};

struct SpConfig {
  double tolerance = 1e-3;     ///< convergence: max residual below this
  /// Sequential sweep cap: converging instances settle within ~70 sweeps;
  /// past this SP is declared non-convergent (expected near threshold).
  std::uint32_t max_sweeps = 250;
  double paramagnetic_eps = 0.01;   ///< all-surveys-trivial threshold
  std::uint32_t max_decimations = 1u << 20;
  /// Fraction of still-free variables fixed per SP convergence (standard
  /// SID batches the most polarized ones instead of re-converging per
  /// variable). At least one variable is fixed per round.
  double decimation_fraction = 0.02;
  /// Branching budget for the DPLL fallback on the residual formula
  /// (near-threshold decimation can leave a hard residual); exceeding it
  /// reports "not satisfied" rather than searching forever.
  std::uint64_t dpll_decision_budget = 2'000'000;
  /// Scheduler backend for the speculative clause updates (DESIGN.md §14).
  /// Chromatic derives its footprint from the clause-sharing neighborhood.
  /// The default keeps the draw byte-identical to the pre-backend pipeline.
  sched::Backend scheduler = sched::Backend::kRandom;
};

/// Sequential SP: sweep all clauses until the residual drops below
/// tolerance. Returns the number of sweeps, or nullopt if it never
/// converged within the cap.
std::optional<std::uint32_t> run_survey_propagation(SurveyState& state,
                                                    const SpConfig& config);

/// Speculative SP: one task per clause, starting from every clause. A
/// task acquires clause a and every clause sharing a variable with it,
/// recomputes a's surveys, and re-pushes those neighbours when a's surveys
/// moved by at least `tolerance`; the work-set drains at convergence.
[[nodiscard]] AppSpec make_spec(SurveyState& state, double tolerance);

struct SidResult {
  bool satisfied = false;
  std::vector<std::uint8_t> assignment;  ///< valid iff satisfied
  std::uint32_t decimation_steps = 0;
  bool used_dpll_fallback = false;
  Trace trace;  ///< concatenated speculative rounds (adaptive mode only)
};

/// Survey-inspired decimation: converge SP, fix the most polarized
/// variable, simplify, repeat; finish the paramagnetic remainder with
/// DPLL. `controller`/`pool` null → fully sequential SP.
SidResult solve_with_sid(const Formula& formula, const SpConfig& config,
                         Rng& rng, Controller* controller = nullptr,
                         ThreadPool* pool = nullptr);

}  // namespace optipar::sp
