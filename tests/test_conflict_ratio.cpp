#include "model/conflict_ratio.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "model/theory.hpp"

namespace optipar {
namespace {

TEST(ConflictCurve, EdgelessGraphHasZeroRatio) {
  const auto g = CsrGraph::from_edges(30, {});
  Rng rng(1);
  const auto curve = estimate_conflict_curve(g, 20, rng);
  for (std::uint32_t m = 1; m <= 30; ++m) {
    EXPECT_EQ(curve.r_bar(m), 0.0);
    EXPECT_EQ(curve.expected_committed(m), m);
  }
}

TEST(ConflictCurve, CompleteGraphRatioIsExact) {
  // On K_n exactly one task commits per round: k(π, m) = m − 1 always.
  const auto g = gen::complete(12);
  Rng rng(2);
  const auto curve = estimate_conflict_curve(g, 10, rng);
  for (std::uint32_t m = 1; m <= 12; ++m) {
    EXPECT_DOUBLE_EQ(curve.k_bar(m), static_cast<double>(m - 1));
    EXPECT_DOUBLE_EQ(curve.r_bar(m), static_cast<double>(m - 1) / m);
  }
}

TEST(ConflictCurve, RejectsZeroTrials) {
  const auto g = gen::path(4);
  Rng rng(3);
  EXPECT_THROW((void)estimate_conflict_curve(g, 0, rng), std::invalid_argument);
}

TEST(ConflictCurve, Prop2InitialDerivativeMatchesTheory) {
  // Δr̄(1) = r̄(2) − r̄(1) = k̄(2)/2 = d/(2(n−1)) for ANY graph (Prop. 2).
  Rng rng(4);
  struct Case {
    CsrGraph g;
    const char* name;
  };
  std::vector<Case> cases;
  cases.push_back({gen::gnm_random(200, 800, rng), "gnm"});
  cases.push_back({gen::union_of_cliques(200, 7), "cliques"});
  cases.push_back({gen::star(199), "star"});
  for (const auto& c : cases) {
    const auto curve = estimate_conflict_curve(c.g, 40000, rng);
    const double predicted = theory::initial_derivative(
        c.g.num_nodes(), c.g.average_degree());
    const double measured = curve.r_bar(2) - curve.r_bar(1);
    EXPECT_NEAR(measured, predicted, 4 * curve.r_bar_ci95(2)) << c.name;
  }
}

TEST(ConflictCurve, Prop1MonotoneWithinNoise) {
  Rng rng(5);
  const auto g = gen::gnm_random(120, 600, rng);
  const auto curve = estimate_conflict_curve(g, 3000, rng);
  for (std::uint32_t m = 1; m < 120; ++m) {
    EXPECT_GE(curve.r_bar(m + 1) - curve.r_bar(m),
              -(curve.r_bar_ci95(m) + curve.r_bar_ci95(m + 1)))
        << "m=" << m;
  }
}

TEST(ConflictCurve, MatchesThm3ExactlyOnUnionOfCliques) {
  Rng rng(6);
  const std::uint32_t n = 120, d = 5;
  const auto g = gen::union_of_cliques(n, d);
  const auto curve = estimate_conflict_curve(g, 6000, rng);
  for (const std::uint32_t m : {1u, 2u, 5u, 10u, 30u, 60u, 120u}) {
    const double exact = theory::em_union_of_cliques(n, d, m);
    EXPECT_NEAR(curve.expected_committed(m), exact,
                4 * curve.abort_stats[m].ci95() + 1e-9)
        << "m=" << m;
  }
}

TEST(EstimateRAt, AgreesWithCurve) {
  Rng rng(7);
  const auto g = gen::gnm_random(100, 500, rng);
  Rng rng_curve(8);
  const auto curve = estimate_conflict_curve(g, 4000, rng_curve);
  Rng rng_point(9);
  const auto point = estimate_r_at(g, 30, 4000, rng_point);
  EXPECT_NEAR(point.mean(), curve.r_bar(30),
              3 * (point.ci95() + curve.r_bar_ci95(30)));
}

TEST(EstimateRAt, ValidatesArguments) {
  const auto g = gen::path(5);
  Rng rng(10);
  EXPECT_THROW((void)estimate_r_at(g, 0, 10, rng), std::invalid_argument);
  EXPECT_THROW((void)estimate_r_at(g, 6, 10, rng), std::invalid_argument);
}

TEST(EstimateCommittedAt, Example1FromThePaper) {
  // G = K_{n²} ⊎ D_n with n = 12: the max IS has n+1 = 13 nodes, but
  // launching n+1 random tasks yields ≈ 2 committed on average.
  const std::uint32_t n = 12;
  const auto g = gen::clique_plus_isolated(n * n, n);
  Rng rng(11);
  const auto committed = estimate_committed_at(g, n + 1, 20000, rng);
  // Expected: 1 from the clique (if hit) + (n+1)·n/(n²+n) isolated ones ≈ 2.
  EXPECT_NEAR(committed.mean(), 2.0, 0.1);
  EXPECT_LT(committed.mean() + 3 * committed.ci95(), 3.0);
}

TEST(FindMu, CompleteGraphTargetsAreTiny) {
  // On K_n, r̄(m) = (m−1)/m, so r̄(m) <= 0.25 only for m = 1; μ = 1.
  const auto g = gen::complete(16);
  Rng rng(12);
  EXPECT_EQ(find_mu(g, 0.25, 50, rng), 1u);
  // ρ = 0.55 admits m = 2 (r = 1/2 <= 0.55).
  EXPECT_EQ(find_mu(g, 0.55, 50, rng), 2u);
}

TEST(FindMu, EdgelessGraphUsesEverything) {
  const auto g = CsrGraph::from_edges(40, {});
  Rng rng(13);
  EXPECT_EQ(find_mu(g, 0.25, 5, rng), 40u);
}

TEST(FindMu, ScalesWithGraphSizeOnCliques) {
  // For K_d^n with fixed d, the m achieving a given ratio grows with n.
  Rng rng(14);
  const auto small = gen::union_of_cliques(60, 5);
  const auto large = gen::union_of_cliques(240, 5);
  const auto mu_small = find_mu(small, 0.25, 2000, rng);
  const auto mu_large = find_mu(large, 0.25, 2000, rng);
  EXPECT_GT(mu_large, 2 * mu_small);
}

}  // namespace
}  // namespace optipar
