#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "support/rng.hpp"

namespace optipar {
namespace {

TEST(StreamingStats, EmptyDefaults) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sem(), 0.0);
}

TEST(StreamingStats, MeanAndVarianceMatchDirectFormulas) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  StreamingStats s;
  for (const double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with Bessel correction: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StreamingStats, SingleSampleHasZeroVariance) {
  StreamingStats s;
  s.add(3.14);
  EXPECT_DOUBLE_EQ(s.mean(), 3.14);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, Ci95ShrinksWithSamples) {
  StreamingStats small;
  StreamingStats large;
  Rng rng(7);
  for (int i = 0; i < 10; ++i) small.add(rng.uniform());
  for (int i = 0; i < 10000; ++i) large.add(rng.uniform());
  EXPECT_GT(small.ci95(), large.ci95());
}

TEST(Ewma, ConstantInputConvergesToConstant) {
  Ewma e(0.3);
  for (int i = 0; i < 50; ++i) e.add(4.2);
  EXPECT_NEAR(e.value(), 4.2, 1e-9);
}

TEST(Ewma, BiasCorrectionMakesFirstSampleExact) {
  Ewma e(0.1);
  e.add(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-12);
}

TEST(Ewma, TracksStepChange) {
  Ewma e(0.5);
  for (int i = 0; i < 20; ++i) e.add(0.0);
  for (int i = 0; i < 20; ++i) e.add(1.0);
  EXPECT_GT(e.value(), 0.99);
}

TEST(Ewma, ResetClears) {
  Ewma e(0.5);
  e.add(5.0);
  e.reset();
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.value(), 0.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW((void)Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW((void)Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.5);    // bin 9
  h.add(-100);   // clamps to bin 0
  h.add(100);    // clamps to bin 9
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  for (std::size_t b = 1; b < 9; ++b) EXPECT_EQ(h.count(b), 0u);
}

TEST(Histogram, QuantileOfUniformData) {
  Histogram h(0.0, 1.0, 100);
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) h.add(rng.uniform());
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
  EXPECT_NEAR(h.quantile(0.1), 0.1, 0.02);
}

TEST(Histogram, QuantileOnEmptyThrows) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_THROW((void)h.quantile(0.5), std::logic_error);
}

TEST(Histogram, AsciiHasOneCharPerBinUpToWidth) {
  Histogram h(0.0, 1.0, 8);
  h.add(0.1);
  EXPECT_EQ(h.ascii(40).size(), 8u);
  EXPECT_EQ(h.ascii(4).size(), 4u);
}

}  // namespace
}  // namespace optipar
