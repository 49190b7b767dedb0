// Conflict-attribution profiler (DESIGN.md §15): WHERE do the aborts come
// from? The controller consumes the conflict ratio as one global scalar,
// but the ROADMAP's partitioned-execution item needs the signal spatially
// resolved — which items (graph regions) kill speculative work, per
// scheduler backend. The profiler keeps one relaxed conflict counter per
// abstract-lock item: failed acquires, i.e. the item that killed a
// speculative task (every conflict abort has exactly one).
//
// Recording is a single relaxed fetch_add on the item's counter, reached
// through one pointer test on LaneTelemetry (nullptr = detached, the same
// contract as the rest of the telemetry layer). Every event is recorded,
// which makes single-lane hotspot reports exactly reproducible run-to-run.
//
// Rollups (top-K hotspots, degree-bucketed totals, top-share locality) are
// cold-path reads at a quiescent point.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace optipar::telemetry {

class ConflictProfiler {
 public:
  explicit ConflictProfiler(std::uint32_t num_items);

  ConflictProfiler(const ConflictProfiler&) = delete;
  ConflictProfiler& operator=(const ConflictProfiler&) = delete;

  /// Per-item degree (or any size proxy) for the degree-bucketed rollup;
  /// items without a degree land in bucket 0.
  void set_degrees(std::vector<std::uint32_t> degrees);

  // -- hot-path recording (called from lanes; relaxed atomics) -------------

  void on_conflict(std::uint32_t item) noexcept {
    if (item >= conflicts_.size()) return;
    conflicts_[item].fetch_add(1, std::memory_order_relaxed);
  }

  // -- cold-path rollups ---------------------------------------------------

  [[nodiscard]] std::uint32_t num_items() const noexcept {
    return static_cast<std::uint32_t>(conflicts_.size());
  }
  [[nodiscard]] std::uint64_t total_conflicts() const noexcept;

  struct Hotspot {
    std::uint32_t item = 0;
    std::uint64_t conflicts = 0;
    std::uint32_t degree = 0;
  };

  /// The K items with the most attributed conflicts, descending, ties
  /// broken by item id (so equal-count reports are deterministic).
  [[nodiscard]] std::vector<Hotspot> top_k(std::size_t k) const;

  /// Fraction of all conflicts attributed to the top-K items — the
  /// abort-locality scalar bench/sched_compare reports per backend (1.0
  /// when everything concentrates on K items, ~K/n when uniform).
  [[nodiscard]] double top_share(std::size_t k) const;

  struct DegreeBucket {
    std::uint64_t degree_lo = 0;  ///< inclusive
    std::uint64_t degree_hi = 0;  ///< inclusive
    std::uint64_t items = 0;      ///< items in the degree range
    std::uint64_t conflicts = 0;
  };

  /// Conflicts rolled up by power-of-two degree buckets ([0,0], [1,1],
  /// [2,3], [4,7], ...) — the "is contention a high-degree phenomenon?"
  /// view. Empty buckets are omitted.
  [[nodiscard]] std::vector<DegreeBucket> degree_buckets() const;

  /// Machine-readable report: {"schema":"optipar.profile.v3",...} with the
  /// top-K hotspot list and the degree rollup.
  void write_json(std::ostream& os, std::size_t k) const;

  /// Human-readable top-K table.
  void write_report(std::ostream& os, std::size_t k) const;

 private:
  std::vector<std::atomic<std::uint64_t>> conflicts_;
  std::vector<std::uint32_t> degrees_;
};

}  // namespace optipar::telemetry
