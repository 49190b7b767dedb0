// Differential tests for the SIMD shim (support/simd.hpp): every vector
// ISA the host can run must match the scalar reference BIT-identically on
// random inputs, across sizes that cover zero, sub-width remainders, exact
// blocks, and block+remainder shapes for every shim width.
#include "support/simd.hpp"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.hpp"
#include "support/stats.hpp"

namespace optipar {
namespace {

std::vector<std::size_t> test_sizes() {
  // Per-width coverage: for each shim width w include w-1, w, w+1, 4w,
  // 4w+3 — plus 0 and a few odd primes.
  std::vector<std::size_t> sizes{0, 1, 2, 3, 5, 13, 97};
  for (const simd::Isa isa : simd::available_isas()) {
    const std::size_t w = simd::lane_width_u32(isa);
    for (const std::size_t s : {w - 1, w, w + 1, 4 * w, 4 * w + 3}) {
      sizes.push_back(s);
    }
  }
  return sizes;
}

TEST(SimdShim, ReportsConsistentDispatch) {
  const auto isas = simd::available_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), simd::Isa::kScalar);
  for (const simd::Isa isa : isas) {
    EXPECT_GE(simd::lane_width_u32(isa), 1u);
    EXPECT_STRNE(simd::isa_name(isa), "unknown");
  }
  // The active ISA must be one the host reports as available.
  bool found = false;
  for (const simd::Isa isa : isas) found = found || isa == simd::active_isa();
  EXPECT_TRUE(found);
}

TEST(SimdDifferential, ScatterU32MatchesScalarWithDuplicates) {
  Rng rng(303);
  constexpr std::size_t kTable = 131;
  for (const std::size_t n : test_sizes()) {
    std::vector<std::uint32_t> idx(n);
    for (auto& i : idx) i = rng.below(kTable);  // duplicates guaranteed
    std::vector<std::uint32_t> expected(kTable, 7);
    simd::scatter_u32(expected.data(), idx.data(), n, 99,
                      simd::Isa::kScalar);
    for (const simd::Isa isa : simd::available_isas()) {
      std::vector<std::uint32_t> table(kTable, 7);
      simd::scatter_u32(table.data(), idx.data(), n, 99, isa);
      EXPECT_EQ(table, expected) << simd::isa_name(isa) << " n=" << n;
    }
  }
}

TEST(SimdDifferential, WelfordStepBitIdenticalToStreamingStats) {
  Rng rng(404);
  constexpr std::size_t kSamples = 40;
  for (const std::size_t n : test_sizes()) {
    // Oracle: one StreamingStats per accumulator, element-wise add.
    std::vector<StreamingStats> oracle(n);
    std::vector<std::vector<std::uint32_t>> samples(
        kSamples, std::vector<std::uint32_t>(n));
    for (auto& row : samples) {
      for (auto& v : row) v = rng.below(1000);
    }
    for (const auto& row : samples) {
      for (std::size_t i = 0; i < n; ++i) {
        oracle[i].add(static_cast<double>(row[i]));
      }
    }
    for (const simd::Isa isa : simd::available_isas()) {
      std::vector<double> mean(n, 0.0), m2(n, 0.0), mn(n, 1e300),
          mx(n, -1e300);
      for (std::size_t s = 0; s < kSamples; ++s) {
        simd::welford_step_u32(mean.data(), m2.data(), mn.data(), mx.data(),
                               samples[s].data(), n,
                               static_cast<double>(s + 1), isa);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const StreamingStats folded = StreamingStats::from_moments(
            kSamples, mean[i], m2[i], mn[i], mx[i]);
        // Bit-identity, not tolerance: memcmp the doubles.
        const double om = oracle[i].mean();
        const double fm = folded.mean();
        EXPECT_EQ(std::memcmp(&om, &fm, sizeof(double)), 0)
            << simd::isa_name(isa) << " mean[" << i << "] n=" << n;
        const double ov = oracle[i].variance();
        const double fv = folded.variance();
        EXPECT_EQ(std::memcmp(&ov, &fv, sizeof(double)), 0)
            << simd::isa_name(isa) << " variance[" << i << "] n=" << n;
        EXPECT_EQ(oracle[i].min(), folded.min());
        EXPECT_EQ(oracle[i].max(), folded.max());
        EXPECT_EQ(oracle[i].count(), folded.count());
      }
    }
  }
}

TEST(SimdDifferential, FromMomentsRoundTripsEmptyAccumulator) {
  const StreamingStats empty;
  const StreamingStats rebuilt =
      StreamingStats::from_moments(0, 0.0, 0.0, 1e300, -1e300);
  EXPECT_EQ(rebuilt.count(), empty.count());
  EXPECT_EQ(rebuilt.mean(), empty.mean());
  EXPECT_EQ(rebuilt.variance(), empty.variance());
}

}  // namespace
}  // namespace optipar
