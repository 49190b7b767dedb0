// Streaming statistics used throughout the experiment harness: Welford
// accumulators with normal-approximation confidence intervals, exponentially
// weighted moving averages (for controller smoothing studies), and fixed-bin
// histograms (for abort-count distributions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace optipar {

/// Single-pass mean/variance accumulator (Welford). Numerically stable for
/// billions of samples; no storage of the sample stream.
class StreamingStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  /// Rebuild an accumulator from externally tracked moments. The SoA
  /// estimator path (model/conflict_ratio) runs the identical Welford
  /// recurrence over arrays via simd::welford_step_u32 and folds back
  /// here; the moments must come from that same recurrence (and use the
  /// same empty-state sentinels: min=1e300, max=-1e300 when n == 0) so
  /// the rebuilt accumulator is bit-identical to element-wise add calls.
  [[nodiscard]] static StreamingStats from_moments(std::uint64_t n,
                                                   double mean, double m2,
                                                   double min,
                                                   double max) noexcept {
    StreamingStats s;
    s.n_ = n;
    s.mean_ = mean;
    s.m2_ = m2;
    s.min_ = min;
    s.max_ = max;
    return s;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean.
  [[nodiscard]] double sem() const noexcept;
  /// Half-width of the ~95% normal-approximation confidence interval.
  [[nodiscard]] double ci95() const noexcept { return 1.96 * sem(); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
};

/// Exponentially weighted moving average with bias-corrected warm-up,
/// mirroring what a production controller would use to smooth r_t.
class Ewma {
 public:
  /// alpha in (0, 1]: weight of the newest observation.
  explicit Ewma(double alpha) noexcept : alpha_(alpha) {}

  void add(double x) noexcept {
    raw_ = alpha_ * x + (1.0 - alpha_) * raw_;
    norm_ = alpha_ + (1.0 - alpha_) * norm_;
  }
  [[nodiscard]] bool empty() const noexcept { return norm_ == 0.0; }
  /// Bias-corrected value; 0 when no samples were added.
  [[nodiscard]] double value() const noexcept {
    return norm_ == 0.0 ? 0.0 : raw_ / norm_;
  }
  void reset() noexcept { raw_ = norm_ = 0.0; }

  /// Accumulator internals, for checkpoint/restore (the pair fully
  /// determines future values for a fixed alpha).
  [[nodiscard]] double raw() const noexcept { return raw_; }
  [[nodiscard]] double norm() const noexcept { return norm_; }
  void restore(double raw, double norm) noexcept {
    raw_ = raw;
    norm_ = norm;
  }

 private:
  double alpha_;
  double raw_ = 0.0;
  double norm_ = 0.0;
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range samples clamp into
/// the edge bins so totals always match the sample count.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t bin) const {
    return counts_.at(bin);
  }
  [[nodiscard]] double bin_low(std::size_t bin) const noexcept;
  /// Smallest x with empirical CDF(x) >= q, linear within the bin.
  [[nodiscard]] double quantile(double q) const;
  /// Compact one-line rendering, e.g. for bench logs.
  [[nodiscard]] std::string ascii(std::size_t width = 40) const;

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace optipar
