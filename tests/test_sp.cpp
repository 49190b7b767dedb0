#include <gtest/gtest.h>

#include <cmath>

#include "apps/app_spec.hpp"
#include "apps/sp/formula.hpp"
#include "apps/sp/survey.hpp"
#include "control/hybrid.hpp"

namespace optipar::sp {
namespace {

Formula tiny_sat() {
  // (x0 | x1) & (!x0 | x2) & (!x1 | !x2)
  return Formula(3, {Clause{{{0, true}, {1, true}}},
                     Clause{{{0, false}, {2, true}}},
                     Clause{{{1, false}, {2, false}}}});
}

Formula tiny_unsat() {
  // (x0) & (!x0)
  return Formula(1, {Clause{{{0, true}}}, Clause{{{0, false}}}});
}

// ----------------------------------------------------------------- CNF

TEST(Formula, StructureAndLookup) {
  const auto f = tiny_sat();
  EXPECT_EQ(f.num_vars(), 3u);
  EXPECT_EQ(f.num_clauses(), 3u);
  EXPECT_EQ(f.clauses_of(0), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(f.clauses_of(2), (std::vector<std::uint32_t>{1, 2}));
}

TEST(Formula, RejectsOutOfRangeLiterals) {
  EXPECT_THROW((void)Formula(1, {Clause{{{5, true}}}}), std::invalid_argument);
}

TEST(Formula, Evaluation) {
  const auto f = tiny_sat();
  EXPECT_TRUE(f.is_satisfied_by({1, 0, 1}));
  EXPECT_FALSE(f.is_satisfied_by({1, 1, 1}));  // clause 3 violated
  EXPECT_THROW((void)f.is_satisfied_by({1, 0}), std::invalid_argument);
}

TEST(Formula, FixVariableSimplifies) {
  const auto f = tiny_sat();
  const auto fixed = f.fix_variable(0, true);
  ASSERT_TRUE(fixed.has_value());
  // Clause 0 satisfied and gone; clause 1 loses its !x0 literal.
  EXPECT_EQ(fixed->num_clauses(), 2u);
  EXPECT_EQ(fixed->clause(0).literals.size(), 1u);
  EXPECT_EQ(fixed->clause(0).literals[0].var, 2u);
}

TEST(Formula, FixVariableDetectsContradiction) {
  const auto f = tiny_unsat();
  EXPECT_FALSE(f.fix_variable(0, true).has_value());
  EXPECT_FALSE(f.fix_variable(0, false).has_value());
}

TEST(RandomKsat, ShapeAndDistinctVars) {
  Rng rng(1);
  const auto f = random_ksat(30, 60, 3, rng);
  EXPECT_EQ(f.num_clauses(), 60u);
  for (const auto& clause : f.clauses()) {
    ASSERT_EQ(clause.literals.size(), 3u);
    EXPECT_NE(clause.literals[0].var, clause.literals[1].var);
    EXPECT_NE(clause.literals[0].var, clause.literals[2].var);
    EXPECT_NE(clause.literals[1].var, clause.literals[2].var);
  }
  EXPECT_THROW((void)random_ksat(2, 5, 3, rng), std::invalid_argument);
}

// ---------------------------------------------------------------- DPLL

TEST(Dpll, SolvesTinySat) {
  const auto solution = dpll_solve(tiny_sat());
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(tiny_sat().is_satisfied_by(*solution));
}

TEST(Dpll, DetectsTinyUnsat) {
  EXPECT_FALSE(dpll_solve(tiny_unsat()).has_value());
}

TEST(Dpll, EmptyFormulaIsSat) {
  const Formula f(4, {});
  const auto solution = dpll_solve(f);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(f.is_satisfied_by(*solution));
}

TEST(Dpll, AgreesWithBruteForceOnSmallRandomFormulas) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint32_t n = 8;
    const auto f =
        random_ksat(n, 4 + static_cast<std::uint32_t>(rng.below(36)), 3, rng);
    bool brute_sat = false;
    for (std::uint32_t bits = 0; bits < (1u << n) && !brute_sat; ++bits) {
      std::vector<std::uint8_t> assignment(n);
      for (std::uint32_t v = 0; v < n; ++v) {
        assignment[v] = (bits >> v) & 1;
      }
      brute_sat = f.is_satisfied_by(assignment);
    }
    const auto dpll = dpll_solve(f);
    EXPECT_EQ(dpll.has_value(), brute_sat) << "trial " << trial;
    if (dpll.has_value()) {
      EXPECT_TRUE(f.is_satisfied_by(*dpll));
    }
  }
}

// ------------------------------------------------------------------ SP

TEST(SurveyState, SingleClauseHasNoWarnings) {
  // With no other clauses, every Π^u is 0, so all surveys converge to 0
  // in one sweep regardless of the random initialization.
  const Formula f(3, {Clause{{{0, true}, {1, true}, {2, true}}}});
  Rng rng(2);
  SurveyState state(f, rng);
  SpConfig config;
  const auto sweeps = run_survey_propagation(state, config);
  ASSERT_TRUE(sweeps.has_value());
  EXPECT_LE(*sweeps, 2u);
  EXPECT_LT(state.max_eta(), 1e-12);
}

TEST(SurveyState, ContradictoryUnitsWarnHard) {
  // (x0) & (!x0): each clause warns x0 with survey -> 1.
  Rng rng(3);
  const auto f = tiny_unsat();  // must outlive the SurveyState view
  SurveyState state(f, rng);
  SpConfig config;
  const auto sweeps = run_survey_propagation(state, config);
  ASSERT_TRUE(sweeps.has_value());
  EXPECT_GT(state.eta(0, 0), 0.99);
  EXPECT_GT(state.eta(1, 0), 0.99);
  // The bias sees the (unsatisfiable) 50/50 pull.
  const auto b = state.bias(0);
  EXPECT_NEAR(b.plus, b.minus, 1e-9);
}

TEST(SurveyState, ForcedChainPolarizesBias) {
  // (x0) alone: clause 0 warns x0 toward true, so W+ > W-.
  const Formula f(1, {Clause{{{0, true}}}});
  Rng rng(4);
  SurveyState state(f, rng);
  SpConfig config;
  ASSERT_TRUE(run_survey_propagation(state, config).has_value());
  const auto b = state.bias(0);
  EXPECT_TRUE(b.prefers_true());
  EXPECT_GT(b.plus, 0.99);
}

TEST(SurveyState, SequentialAndSpeculativeAgreeOnTreeFormula) {
  // A tree-shaped (loop-free) factor graph has a unique SP fixed point, so
  // the two execution strategies must land on the same surveys.
  // Chain: (x0|x1) & (!x1|x2) & (!x2|x3) & (!x3|!x4)
  const Formula f(5, {Clause{{{0, true}, {1, true}}},
                      Clause{{{1, false}, {2, true}}},
                      Clause{{{2, false}, {3, true}}},
                      Clause{{{3, false}, {4, false}}}});
  SpConfig config;
  config.tolerance = 1e-8;

  Rng rng_a(5);
  SurveyState sequential(f, rng_a);
  ASSERT_TRUE(run_survey_propagation(sequential, config).has_value());

  Rng rng_b(6);
  SurveyState speculative(f, rng_b);
  ThreadPool pool(4);
  ControllerParams p;
  HybridController controller(p);
  const AppSpec spec = make_spec(speculative, config.tolerance);
  const auto trace =
      drain(*build_executor(pool, spec, 77), spec, controller).trace;
  ASSERT_FALSE(trace.steps.empty());
  EXPECT_EQ(trace.steps.back().pending_after, 0u);  // drained = converged
  for (std::uint32_t a = 0; a < f.num_clauses(); ++a) {
    for (std::uint32_t s = 0; s < f.clause(a).literals.size(); ++s) {
      EXPECT_NEAR(sequential.eta(a, s), speculative.eta(a, s), 1e-4)
          << "clause " << a << " slot " << s;
    }
  }
}

// ----------------------------------------------------------------- SID

class SidTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SidTest, SolvesEasyRandom3Sat) {
  Rng rng(GetParam());
  const auto f = random_ksat(40, 80, 3, rng);  // ratio 2.0 << threshold
  SpConfig config;
  const auto result = solve_with_sid(f, config, rng);
  EXPECT_TRUE(result.satisfied);
  EXPECT_TRUE(f.is_satisfied_by(result.assignment));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SidTest, ::testing::Values(11, 22, 33, 44));

TEST(Sid, SpeculativeModeAlsoSolves) {
  Rng rng(55);
  const auto f = random_ksat(40, 90, 3, rng);
  SpConfig config;
  ThreadPool pool(4);
  ControllerParams p;
  HybridController controller(p);
  const auto result = solve_with_sid(f, config, rng, &controller, &pool);
  EXPECT_TRUE(result.satisfied);
  EXPECT_TRUE(f.is_satisfied_by(result.assignment));
  EXPECT_FALSE(result.trace.steps.empty());
}

TEST(Sid, UnsatFormulaReportsUnsatisfied) {
  Rng rng(66);
  const auto result = solve_with_sid(tiny_unsat(), SpConfig{}, rng);
  EXPECT_FALSE(result.satisfied);
}

TEST(Sid, EmptyFormulaIsTriviallySatisfied) {
  Rng rng(77);
  const Formula f(6, {});
  const auto result = solve_with_sid(f, SpConfig{}, rng);
  EXPECT_TRUE(result.satisfied);
}

}  // namespace
}  // namespace optipar::sp
