// Speculation-free chromatic rounds (Rokos/Gorman/Kelly, PAPERS.md): color
// the conflict graph of the pending tasks' declared footprints so that
// same-color tasks are pairwise disjoint, then execute whole color classes
// per round. Zero aborts by construction — the executor downgrades conflict
// detection to a debug assert under this backend.
//
// The coloring is greedy smallest-absent-color in a deterministic
// Jones–Plassmann priority order (a PRF over the task id, ties by arrival),
// which is exactly the fixpoint a parallel JP sweep converges to for that
// priority assignment. New arrivals (committed pushes, requeues) are
// colored incrementally against the standing classes; dynamic apps whose
// footprints move (boruvka contraction, mesh refinement) call
// invalidate_pending() between rounds to recolor with fresh footprints.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sched/scheduler.hpp"

namespace optipar::sched {

class ChromaticScheduler final : public Scheduler {
 public:
  explicit ChromaticScheduler(std::uint64_t seed);

  [[nodiscard]] Backend backend() const noexcept override {
    return Backend::kChromatic;
  }
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] bool centralized() const noexcept override { return true; }
  [[nodiscard]] bool zero_abort() const noexcept override { return true; }

  /// Install the footprint declaration. Must be set before the first push
  /// (and re-installed before load_state, which recomputes footprints).
  void set_footprint_function(FootprintFn fn);

  /// Drop every standing color assignment and recolor all pending tasks
  /// with freshly computed footprints. Call between rounds when operator
  /// execution may have changed task neighborhoods (dynamic apps).
  void invalidate_pending();

  void push(std::span<const TaskId> tasks) override;
  void requeue(std::span<const TaskId> tasks) override;
  void splice(std::size_t lane, std::span<const TaskId> tasks) override;

  std::size_t begin_round(std::size_t m,
                          std::vector<TaskId>& active) override;

  void save_state(snapshot::Writer& out) const override;
  void load_state(snapshot::Reader& in) override;

 private:
  /// One pending task instance. Duplicate TaskIds are distinct entries
  /// whose (identical) footprints conflict with each other, so re-pushed
  /// instances of one task land in different classes.
  struct Entry {
    TaskId task;
    std::vector<std::uint32_t> fp;  // declared footprint, may hold dupes
  };

  /// Jones–Plassmann priority: PRF over the task id, seed-keyed.
  [[nodiscard]] std::uint64_t jp_key(TaskId task) const;

  /// Color `tasks` (footprints computed via footprint_fn_) in JP order
  /// against the standing index and append them to their classes.
  void color_batch(std::span<const TaskId> tasks);
  /// Color one entry (smallest color absent from its footprint's index
  /// rows) and insert it. `fresh_class` forces a brand-new color.
  void color_entry(Entry entry, bool fresh_class);
  void index_insert(const Entry& entry, std::uint32_t color);
  void index_remove(const Entry& entry, std::uint32_t color);
  /// Move spliced-but-uncolored arrivals into the classes. Serial.
  void absorb_spliced();

  std::uint64_t seed_;
  FootprintFn footprint_fn_;

  // classes_[c] holds the color-c entries not yet drawn; heads_[c] is the
  // consumed prefix (compacted when a class drains). color_cursor_ is the
  // class the next round draws from; a full wrap with every class empty
  // means only spliced_ (or nothing) remains.
  std::vector<std::vector<Entry>> classes_;
  std::vector<std::size_t> heads_;
  std::size_t color_cursor_ = 0;

  // item id -> colors of standing entries whose footprint contains the
  // item (one occurrence per entry, duplicates allowed). Lookup-only; the
  // map is never iterated, so unordered ordering cannot leak into
  // scheduling decisions.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> index_;

  // Parallel-epilogue arrivals, colored at the next serial point.
  mutable std::mutex spliced_mutex_;
  std::vector<TaskId> spliced_;

  // Scratch for color_entry (avoids per-entry allocation).
  std::vector<char> forbidden_;
};

}  // namespace optipar::sched
