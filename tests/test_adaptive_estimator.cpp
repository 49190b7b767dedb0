#include "model/adaptive_estimator.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "model/theory.hpp"
#include "sim/run_loop.hpp"

namespace optipar {
namespace {

AdaptiveConfig plain_config() {
  AdaptiveConfig cfg;
  cfg.antithetic = false;
  cfg.control_variates = false;
  return cfg;
}

// ---------------------------------------------------------------------------
// Stream compatibility of the fixed-trial point estimators: all three are
// views of the SAME per-trial simulation, so identical seeds must produce
// identical draw sequences and bit-identical statistics.

TEST(EstimatorStreamCompat, PointEstimatorsShareOneDrawStream) {
  Rng gen_rng(31);
  const auto g = gen::gnm_random(120, 600, gen_rng);
  const std::uint32_t m = 40, trials = 500;

  Rng r1(77), r2(77), r3(77);
  const auto r_only = estimate_r_at(g, m, trials, r1);
  const auto committed_only = estimate_committed_at(g, m, trials, r2);
  const auto both = estimate_round_point(g, m, trials, r3);

  EXPECT_EQ(r_only.count(), trials);
  EXPECT_DOUBLE_EQ(r_only.mean(), both.r.mean());
  EXPECT_DOUBLE_EQ(r_only.variance(), both.r.variance());
  EXPECT_DOUBLE_EQ(committed_only.mean(), both.committed.mean());
  EXPECT_DOUBLE_EQ(committed_only.variance(), both.committed.variance());
  // The two statistics are two views of one outcome per trial (the means
  // agree up to accumulation rounding, not bitwise: they average different
  // per-trial values).
  EXPECT_NEAR(both.committed.mean(), m * (1.0 - both.r.mean()), 1e-9);
  // And the generators must have consumed identical draws.
  const auto next1 = r1(), next2 = r2(), next3 = r3();
  EXPECT_EQ(next1, next2);
  EXPECT_EQ(next2, next3);
}

// ---------------------------------------------------------------------------
// Antithetic pairing must be mean-preserving: reverse(π) is itself a
// uniform permutation, so on K_d^n — where Thm. 3 gives the exact answer —
// the paired estimate must agree with theory within its reported CI.

TEST(AdaptiveCurve, AntitheticIsMeanPreservingOnKdn) {
  const std::uint32_t n = 120, d = 5;
  const auto g = gen::union_of_cliques(n, d);
  AdaptiveConfig cfg = plain_config();
  cfg.antithetic = true;  // antithetic WITHOUT control variates
  cfg.epsilon = 0.004;
  cfg.max_sweeps = 1u << 18;
  const auto est = estimate_conflict_curve_adaptive(g, cfg, 5);
  ASSERT_TRUE(est.converged);
  for (const std::uint32_t m : {2u, 10u, 30u, 60u, 120u}) {
    const double exact = theory::em_union_of_cliques(n, d, m);
    EXPECT_NEAR(est.curve.expected_committed(m), exact,
                4 * est.curve.abort_stats[m].ci95() + 1e-9)
        << "m=" << m;
  }
}

TEST(AdaptiveCurve, AntitheticAgreesWithPlainSampling) {
  Rng gen_rng(32);
  const auto g = gen::gnm_random(150, 900, gen_rng);
  AdaptiveConfig plain = plain_config();
  plain.epsilon = 0.005;
  AdaptiveConfig anti = plain;
  anti.antithetic = true;
  const auto a = estimate_conflict_curve_adaptive(g, plain, 9);
  const auto b = estimate_conflict_curve_adaptive(g, anti, 10);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  for (const std::uint32_t m : {2u, 40u, 75u, 150u}) {
    EXPECT_NEAR(a.curve.r_bar(m), b.curve.r_bar(m),
                4 * (a.curve.r_bar_ci95(m) + b.curve.r_bar_ci95(m)) + 1e-3)
        << "m=" << m;
  }
}

// ---------------------------------------------------------------------------
// Control variates: the clique closed form makes K_d^n exact (zero
// variance, immediate convergence), and the precomputed expectation must
// match Thm. 3 analytically.

TEST(CliqueControlVariate, ExpectedAbortsMatchThm3OnKdn) {
  const std::uint32_t n = 126, d = 8;
  const auto g = gen::union_of_cliques(n, d);
  const auto cv = build_clique_control_variate(g);
  EXPECT_TRUE(cv.active());
  EXPECT_EQ(cv.clique_nodes, n);
  EXPECT_EQ(cv.num_clique_comps, n / (d + 1));
  for (std::uint32_t m = 1; m <= n; ++m) {
    const double exact_aborts =
        static_cast<double>(m) - theory::em_union_of_cliques(n, d, m);
    EXPECT_NEAR(cv.expected_aborts[m], exact_aborts, 1e-9) << "m=" << m;
  }
}

TEST(CliqueControlVariate, IgnoresNonCliqueAndSingletonComponents) {
  // path(4) is connected but not a clique; isolated nodes are K_1 with a
  // contribution of exactly zero — neither may be marked.
  Rng rng(33);
  const auto g = CsrGraph::from_edges(
      10, {{0, 1}, {1, 2}, {2, 3},  // path component
           {4, 5}, {4, 6}, {5, 6}});  // triangle component; 7..9 isolated
  const auto cv = build_clique_control_variate(g);
  EXPECT_TRUE(cv.active());
  EXPECT_EQ(cv.num_clique_comps, 1u);  // just the triangle
  EXPECT_EQ(cv.clique_nodes, 3u);
  for (NodeId v : {0u, 1u, 2u, 3u, 7u, 8u, 9u}) {
    EXPECT_EQ(cv.clique_comp[v], CliqueControlVariate::kNotClique);
  }
  for (NodeId v : {4u, 5u, 6u}) {
    EXPECT_NE(cv.clique_comp[v], CliqueControlVariate::kNotClique);
  }
}

TEST(AdaptiveCurve, ControlVariatesAreExactOnKdn) {
  const std::uint32_t n = 204, d = 16;
  const auto g = gen::union_of_cliques(n, d);
  AdaptiveConfig cfg;  // defaults: antithetic + control variates
  cfg.epsilon = 1e-6;  // even a brutal precision target costs min_samples
  const auto est = estimate_conflict_curve_adaptive(g, cfg, 3);
  EXPECT_TRUE(est.converged);
  EXPECT_EQ(est.samples, cfg.min_samples);
  EXPECT_EQ(est.sweeps, cfg.min_samples * 2);
  EXPECT_EQ(est.worst_ci, 0.0);
  EXPECT_DOUBLE_EQ(est.clique_node_fraction, 1.0);
  for (const std::uint32_t m : {1u, 17u, 50u, 100u, 204u}) {
    EXPECT_NEAR(est.curve.expected_committed(m),
                theory::em_union_of_cliques(n, d, m), 1e-9)
        << "m=" << m;
  }
}

// ---------------------------------------------------------------------------
// Determinism and the stopping rule.

TEST(AdaptiveCurve, DeterministicGivenSeedAndConfig) {
  Rng gen_rng(34);
  const auto g = gen::gnm_random(100, 400, gen_rng);
  AdaptiveConfig cfg;
  cfg.epsilon = 0.01;
  const auto a = estimate_conflict_curve_adaptive(g, cfg, 99);
  const auto b = estimate_conflict_curve_adaptive(g, cfg, 99);
  EXPECT_EQ(a.sweeps, b.sweeps);
  EXPECT_EQ(a.samples, b.samples);
  for (std::uint32_t m = 0; m <= 100; ++m) {
    EXPECT_DOUBLE_EQ(a.curve.k_bar(m), b.curve.k_bar(m));
  }
}

// Regression pin for the stopping rule: a fixed (seed, epsilon) pair must
// reproduce the exact trial count and a bit-identical curve on two
// reference graphs. If batching, lane assignment, antithetic pairing, or
// the CV arithmetic changes the draw/stopping stream, this fails loudly —
// re-record the constants only for an intentional format break.
TEST(AdaptiveCurve, StoppingRulePinnedOnReferenceGraphs) {
  AdaptiveConfig cfg;
  cfg.epsilon = 0.01;

  Rng gen_a(101);
  const auto gnm = gen::gnm_random(200, 1200, gen_a);
  const auto a = estimate_conflict_curve_adaptive(gnm, cfg, 7);
  ASSERT_TRUE(a.converged);
  EXPECT_EQ(a.sweeps, 704u);
  EXPECT_EQ(a.samples, 352u);
  EXPECT_EQ(a.curve.k_bar(50), 0x1.b26e8ba2e8ba5p+4);    // 27.1520...
  EXPECT_EQ(a.curve.k_bar(200), 0x1.3d58ba2e8ba3p+7);    // 158.673...

  Rng gen_b(102);
  const auto skew = gen::rmat(256, 1024, 0.55, 0.15, 0.15, gen_b);
  const auto b = estimate_conflict_curve_adaptive(skew, cfg, 7);
  ASSERT_TRUE(b.converged);
  EXPECT_EQ(b.sweeps, 352u);
  EXPECT_EQ(b.samples, 176u);
  EXPECT_EQ(b.curve.k_bar(64), 0x1.51e8ba2e8ba3p+4);     // 21.1193...
  EXPECT_EQ(b.curve.k_bar(256), 0x1.1292e8ba2e8bbp+7);   // 137.287...
}

TEST(AdaptiveCurve, TighterEpsilonSpendsMoreSweeps) {
  Rng gen_rng(38);
  const auto g = gen::gnm_random(120, 600, gen_rng);
  AdaptiveConfig loose = plain_config();
  loose.epsilon = 0.02;
  AdaptiveConfig tight = plain_config();
  tight.epsilon = 0.005;
  const auto a = estimate_conflict_curve_adaptive(g, loose, 4);
  const auto b = estimate_conflict_curve_adaptive(g, tight, 4);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_LT(a.sweeps, b.sweeps);
  EXPECT_LE(a.worst_ci, loose.epsilon);
  EXPECT_LE(b.worst_ci, tight.epsilon);
}

TEST(AdaptiveCurve, RespectsSweepBudget) {
  Rng gen_rng(39);
  const auto g = gen::gnm_random(120, 600, gen_rng);
  AdaptiveConfig cfg;
  cfg.epsilon = 1e-9;  // unreachable
  cfg.max_sweeps = 64;
  const auto est = estimate_conflict_curve_adaptive(g, cfg, 4);
  EXPECT_FALSE(est.converged);
  EXPECT_LE(est.sweeps, cfg.max_sweeps);
  EXPECT_GT(est.samples, 0u);
}

TEST(AdaptiveCurve, ValidatesConfig) {
  const auto g = gen::path(6);
  AdaptiveConfig bad;
  bad.epsilon = 0.0;
  EXPECT_THROW((void)estimate_conflict_curve_adaptive(g, bad, 1),
               std::invalid_argument);
  bad = AdaptiveConfig{};
  bad.min_samples = 1;
  EXPECT_THROW((void)estimate_conflict_curve_adaptive(g, bad, 1),
               std::invalid_argument);
  bad = AdaptiveConfig{};
  bad.batch_samples = 0;
  EXPECT_THROW((void)estimate_conflict_curve_adaptive(g, bad, 1),
               std::invalid_argument);
  bad = AdaptiveConfig{};
  bad.max_sweeps = 2;  // < 2 antithetic samples
  EXPECT_THROW((void)estimate_conflict_curve_adaptive(g, bad, 1),
               std::invalid_argument);
}

TEST(AdaptiveCurve, InternalRelabelingKeepsCvExactness) {
  const auto g = gen::union_of_cliques(102, 16);
  AdaptiveConfig cfg;
  cfg.relabel = RelabelOrder::kBfs;
  const auto est = estimate_conflict_curve_adaptive(g, cfg, 6);
  EXPECT_TRUE(est.converged);
  EXPECT_TRUE(est.map.validate());
  EXPECT_EQ(est.worst_ci, 0.0);
  for (const std::uint32_t m : {1u, 17u, 60u, 102u}) {
    EXPECT_NEAR(est.curve.expected_committed(m),
                theory::em_union_of_cliques(102, 16, m), 1e-9)
        << "m=" << m;
  }
}

// ---------------------------------------------------------------------------
// Point estimation and the sim layer's operating-point search.

TEST(AdaptivePoint, ConvergesAndIsInternallyConsistent) {
  Rng gen_rng(40);
  const auto g = gen::gnm_random(200, 1600, gen_rng);
  AdaptiveConfig cfg;
  cfg.epsilon = 0.01;
  const std::uint32_t m = 50;
  const auto est = estimate_round_point_adaptive(g, m, cfg, 14);
  ASSERT_TRUE(est.converged);
  EXPECT_LE(est.r.ci95(), cfg.epsilon);
  EXPECT_GE(est.r.mean(), 0.0);
  EXPECT_LE(est.r.mean(), 1.0);
  // committed and r are two views of the same adjusted abort sample.
  EXPECT_NEAR(est.committed.mean(), m * (1.0 - est.r.mean()), 1e-9);
  EXPECT_EQ(est.rounds, est.samples * 2);  // antithetic pairs
}

TEST(AdaptivePoint, ExactOnKdn) {
  const std::uint32_t n = 126, d = 8, m = 40;
  const auto g = gen::union_of_cliques(n, d);
  AdaptiveConfig cfg;
  cfg.epsilon = 1e-6;
  const auto est = estimate_round_point_adaptive(g, m, cfg, 15);
  EXPECT_TRUE(est.converged);
  EXPECT_EQ(est.samples, cfg.min_samples);
  EXPECT_NEAR(est.committed.mean(), theory::em_union_of_cliques(n, d, m),
              1e-9);
}

TEST(AdaptivePoint, ValidatesM) {
  const auto g = gen::path(5);
  AdaptiveConfig cfg;
  EXPECT_THROW((void)estimate_round_point_adaptive(g, 0, cfg, 1),
               std::invalid_argument);
  EXPECT_THROW((void)estimate_round_point_adaptive(g, 6, cfg, 1),
               std::invalid_argument);
}

TEST(OperatingPoint, MatchesCurveReadoffAndAgreesWithFixedTrials) {
  Rng gen_rng(41);
  const auto g = gen::gnm_random(300, 2400, gen_rng);
  AdaptiveConfig cfg;
  cfg.epsilon = 0.008;
  const auto op = find_operating_point(g, 0.25, cfg, 16);
  ASSERT_TRUE(op.converged);
  EXPECT_LE(op.r_at_mu, 0.25);
  EXPECT_LE(op.ci_at_mu, cfg.epsilon);

  const auto direct = find_mu_adaptive(g, 0.25, cfg, 16);
  EXPECT_EQ(op.mu, direct.mu);
  EXPECT_EQ(op.sweeps, direct.curve.sweeps);

  // The historical fixed-trial search must land in the same neighborhood.
  Rng mu_rng(17);
  const auto fixed = find_mu(g, 0.25, 2000, mu_rng);
  EXPECT_NEAR(static_cast<double>(op.mu), static_cast<double>(fixed),
              0.15 * static_cast<double>(fixed) + 3.0);
}

}  // namespace
}  // namespace optipar
