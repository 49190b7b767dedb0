#include "apps/sp/survey.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>

namespace optipar::sp {

SurveyState::SurveyState(const Formula& formula, Rng& rng)
    : formula_(&formula), eta_(formula.num_clauses()) {
  for (std::uint32_t c = 0; c < formula.num_clauses(); ++c) {
    eta_[c].resize(formula.clause(c).literals.size());
    for (auto& e : eta_[c]) e = rng.uniform();
  }
}

namespace {

/// The three Π products for variable j feeding into clause a (BMZ eq. SP):
///   prod_same  = Π_{b ∋ j, b ≠ a, sign(j, b) == sign(j, a)} (1 − η_{b→j})
///   prod_opp   = likewise over opposite-sign occurrences.
struct VarProducts {
  double prod_same = 1.0;
  double prod_opp = 1.0;
};

VarProducts var_products(const Formula& formula,
                         const std::vector<std::vector<double>>& eta,
                         std::uint32_t j, std::uint32_t a, bool sign_in_a) {
  VarProducts p;
  for (const std::uint32_t b : formula.clauses_of(j)) {
    if (b == a) continue;
    const auto& lits = formula.clause(b).literals;
    for (std::uint32_t slot = 0; slot < lits.size(); ++slot) {
      if (lits[slot].var != j) continue;
      const double factor = 1.0 - eta[b][slot];
      if (lits[slot].positive == sign_in_a) {
        p.prod_same *= factor;
      } else {
        p.prod_opp *= factor;
      }
    }
  }
  return p;
}

}  // namespace

std::vector<double> SurveyState::compute_clause(std::uint32_t a) const {
  const auto& lits = formula_->clause(a).literals;
  std::vector<double> out(lits.size(), 1.0);
  // Per-literal j term: Π^u / (Π^u + Π^s + Π^0), where "u" is the
  // direction that does NOT satisfy clause a.
  std::vector<double> term(lits.size(), 0.0);
  for (std::uint32_t s = 0; s < lits.size(); ++s) {
    const auto [prod_same, prod_opp] = var_products(
        *formula_, eta_, lits[s].var, a, lits[s].positive);
    // Warnings from same-sign clauses push j toward satisfying a;
    // warnings from opposite-sign clauses push it away.
    const double pi_u = (1.0 - prod_opp) * prod_same;
    const double pi_s = (1.0 - prod_same) * prod_opp;
    const double pi_0 = prod_same * prod_opp;
    const double denom = pi_u + pi_s + pi_0;
    term[s] = denom <= 0.0 ? 0.0 : pi_u / denom;
  }
  for (std::uint32_t s = 0; s < lits.size(); ++s) {
    double eta_value = 1.0;
    for (std::uint32_t other = 0; other < lits.size(); ++other) {
      if (other != s) eta_value *= term[other];
    }
    out[s] = eta_value;
  }
  return out;
}

double SurveyState::clause_residual(std::uint32_t a) const {
  const auto fresh = compute_clause(a);
  double residual = 0.0;
  for (std::uint32_t s = 0; s < fresh.size(); ++s) {
    residual = std::max(residual, std::abs(fresh[s] - eta_[a][s]));
  }
  return residual;
}

SurveyState::Bias SurveyState::bias(std::uint32_t var) const {
  double prod_pos = 1.0;  // Π over clauses where var appears positive
  double prod_neg = 1.0;
  for (const std::uint32_t b : formula_->clauses_of(var)) {
    const auto& lits = formula_->clause(b).literals;
    for (std::uint32_t slot = 0; slot < lits.size(); ++slot) {
      if (lits[slot].var != var) continue;
      const double factor = 1.0 - eta_[b][slot];
      if (lits[slot].positive) {
        prod_pos *= factor;
      } else {
        prod_neg *= factor;
      }
    }
  }
  const double pi_plus = (1.0 - prod_pos) * prod_neg;
  const double pi_minus = (1.0 - prod_neg) * prod_pos;
  const double pi_zero = prod_pos * prod_neg;
  const double denom = pi_plus + pi_minus + pi_zero;
  Bias bias;
  if (denom > 0.0) {
    bias.plus = pi_plus / denom;
    bias.minus = pi_minus / denom;
    bias.zero = pi_zero / denom;
  }
  return bias;
}

double SurveyState::max_eta() const {
  double m = 0.0;
  for (const auto& clause : eta_) {
    for (const double e : clause) m = std::max(m, e);
  }
  return m;
}

std::optional<std::uint32_t> run_survey_propagation(SurveyState& state,
                                                    const SpConfig& config) {
  const auto& formula = state.formula();
  for (std::uint32_t sweep = 0; sweep < config.max_sweeps; ++sweep) {
    double residual = 0.0;
    for (std::uint32_t a = 0; a < formula.num_clauses(); ++a) {
      const auto fresh = state.compute_clause(a);
      for (std::uint32_t s = 0; s < fresh.size(); ++s) {
        residual = std::max(residual, std::abs(fresh[s] - state.eta(a, s)));
        state.set_eta(a, s, fresh[s]);
      }
    }
    if (residual < config.tolerance) return sweep + 1;
  }
  return std::nullopt;
}

AppSpec make_spec(SurveyState& state, double tolerance) {
  const Formula& formula = state.formula();
  AppSpec spec;
  spec.items = formula.num_clauses();
  spec.initial = all_tasks(formula.num_clauses());

  // Pending-membership flags keep the work-set duplicate-free: a clause is
  // scheduled at most once at a time. Each flag is only touched while the
  // corresponding clause's lock is held.
  auto scheduled = std::make_shared<std::vector<std::uint8_t>>(
      formula.num_clauses(), 1);

  spec.op = [&state, &formula, tolerance, scheduled](TaskId task,
                                                     IterationContext& ctx) {
    const auto a = static_cast<std::uint32_t>(task);
    if (!ctx.acquire(a)) return;

    // Acquire every clause sharing a variable with a (their surveys feed
    // the update, and they must be re-examined if ours changes) before the
    // first write: an aborted task leaves a's scheduled flag set, and the
    // executor requeues it.
    std::set<std::uint32_t> neighborhood;
    for (const Literal& lit : formula.clause(a).literals) {
      for (const std::uint32_t b : formula.clauses_of(lit.var)) {
        if (b != a) neighborhood.insert(b);
      }
    }
    for (const std::uint32_t b : neighborhood) {
      if (!ctx.acquire(b)) return;
    }
    (*scheduled)[a] = 0;  // we are running

    const auto fresh = state.compute_clause(a);
    double delta = 0.0;
    for (std::uint32_t s = 0; s < fresh.size(); ++s) {
      const double old = state.eta(a, s);
      delta = std::max(delta, std::abs(fresh[s] - old));
      if (fresh[s] != old) state.set_eta(a, s, fresh[s]);
    }
    if (delta >= tolerance) {
      // Our surveys moved materially: the neighbors' residuals are stale.
      // (a itself is now self-consistent — it is NOT re-pushed; neighbors
      // will re-push it if they move.)
      for (const std::uint32_t b : neighborhood) {
        if ((*scheduled)[b] == 0) {
          (*scheduled)[b] = 1;
          ctx.push(b);
        }
      }
    }
  };
  spec.footprint = [&formula](TaskId task, std::vector<std::uint32_t>& fp) {
    const auto a = static_cast<std::uint32_t>(task);
    fp.push_back(a);
    for (const Literal& lit : formula.clause(a).literals) {
      for (const std::uint32_t b : formula.clauses_of(lit.var)) {
        fp.push_back(b);
      }
    }
  };
  return spec;
}

SidResult solve_with_sid(const Formula& formula, const SpConfig& config,
                         Rng& rng, Controller* controller, ThreadPool* pool) {
  SidResult result;
  result.assignment.assign(formula.num_vars(), 1);
  std::vector<std::uint8_t> decided(formula.num_vars(), 0);

  Formula current = formula;
  for (std::uint32_t step = 0; step < config.max_decimations; ++step) {
    if (current.num_clauses() == 0) break;

    SurveyState state(current, rng);
    bool converged = false;
    if (controller != nullptr && pool != nullptr) {
      controller->reset();
      const AppSpec spec = make_spec(state, config.tolerance);
      const auto ex = build_executor(
          *pool, spec, rng(), RoundOptions{.scheduler = config.scheduler});
      AdaptiveRunConfig run_config;
      run_config.max_rounds = 100000;
      Trace t = drain(*ex, spec, *controller, run_config).trace;
      // Converged iff the work-set drained before the round cap.
      converged = t.steps.empty() || t.steps.back().pending_after == 0;
      result.trace.steps.insert(result.trace.steps.end(), t.steps.begin(),
                                t.steps.end());
    } else {
      converged = run_survey_propagation(state, config).has_value();
    }

    if (!converged || state.max_eta() < config.paramagnetic_eps) {
      break;  // paramagnetic (or SP failed): finish with DPLL below
    }

    // Batch decimation: fix the top decimation_fraction most polarized
    // still-active variables from this converged state.
    // Snapshot (polarization, var, preferred value) BEFORE any fixing:
    // `state` views the current formula, which the fixes below replace.
    struct Ranked {
      double polarization;
      std::uint32_t var;
      bool prefers_true;
    };
    std::vector<Ranked> ranked;
    for (std::uint32_t v = 0; v < current.num_vars(); ++v) {
      if (decided[v] || current.clauses_of(v).empty()) continue;
      const auto b = state.bias(v);
      ranked.push_back({b.polarization(), v, b.prefers_true()});
    }
    if (ranked.empty()) break;
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.polarization > b.polarization;
    });
    const auto batch = std::max<std::size_t>(
        1, static_cast<std::size_t>(config.decimation_fraction *
                                    static_cast<double>(ranked.size())));

    bool dead_end = false;
    for (std::size_t i = 0; i < batch && i < ranked.size(); ++i) {
      const std::uint32_t var = ranked[i].var;
      bool value = ranked[i].prefers_true;
      auto next = current.fix_variable(var, value);
      if (!next.has_value()) {
        value = !value;  // contradiction: try the opposite polarity
        next = current.fix_variable(var, value);
        if (!next.has_value()) {
          dead_end = true;
          break;
        }
      }
      decided[var] = 1;
      result.assignment[var] = value ? 1 : 0;
      current = std::move(*next);
      ++result.decimation_steps;
    }
    if (dead_end) break;  // hand the rest to DPLL
  }

  // Finish the (paramagnetic / residual) sub-formula with bounded search.
  if (current.num_clauses() > 0) {
    const auto rest =
        dpll_solve_limited(current, config.dpll_decision_budget);
    if (rest.status != SolveStatus::kSat) return result;  // unsatisfied
    result.used_dpll_fallback = true;
    for (std::uint32_t v = 0; v < formula.num_vars(); ++v) {
      if (!decided[v]) result.assignment[v] = rest.assignment[v];
    }
  }
  result.satisfied = formula.is_satisfied_by(result.assignment);
  return result;
}

}  // namespace optipar::sp
