#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace optipar {

double StreamingStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double StreamingStats::stddev() const noexcept { return std::sqrt(variance()); }

double StreamingStats::sem() const noexcept {
  return n_ == 0 ? 0.0 : stddev() / std::sqrt(static_cast<double>(n_));
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (!(hi > lo) || bins == 0) {
    throw std::invalid_argument("Histogram: need hi > lo and bins > 0");
  }
}

void Histogram::add(double x) noexcept {
  const double frac = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::int64_t>(frac * static_cast<double>(counts_.size()));
  bin = std::clamp<std::int64_t>(bin, 0,
                                 static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

double Histogram::bin_low(std::size_t bin) const noexcept {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(counts_.size());
}

double Histogram::quantile(double q) const {
  if (total_ == 0) throw std::logic_error("Histogram::quantile: empty");
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double next = cum + static_cast<double>(counts_[b]);
    if (next >= target) {
      const double inside =
          counts_[b] == 0 ? 0.0
                          : (target - cum) / static_cast<double>(counts_[b]);
      return bin_low(b) + inside * width;
    }
    cum = next;
  }
  return hi_;
}

std::string Histogram::ascii(std::size_t width) const {
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::string out;
  static constexpr const char* kBlocks[] = {" ", ".", ":", "-", "=", "#", "@"};
  for (auto c : counts_) {
    const double frac = static_cast<double>(c) / static_cast<double>(peak);
    const auto level = static_cast<std::size_t>(frac * 6.0);
    out += kBlocks[std::min<std::size_t>(level, 6)];
  }
  if (out.size() > width) out.resize(width);
  return out;
}

}  // namespace optipar
