// Abstract item locks — the conflict-detection mechanism of optimistic
// parallelization (Galois-style). Every shared datum an iteration touches
// is registered under an item id; the first iteration to acquire an item
// owns it for the round, and any later iteration that needs it aborts
// itself (abort-self arbitration: deadlock-free because no task ever
// waits). The table is one 4-byte owner word per item (DESIGN.md §12):
// dense, so a 10^6-item table is 4 MB, at the price of lanes that may
// share a cache line when they lock neighbouring items.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>

namespace optipar {

/// What an acquire found. kHeld (the caller already owns the item) is how
/// an iteration learns that it need not record the item again.
enum class LockResult : std::uint8_t { kTaken, kHeld, kConflict };

class LockManager {
 public:
  /// Owner word of a free item. No iteration may use it as its tag.
  static constexpr std::uint32_t kFree = UINT32_MAX;

  explicit LockManager(std::size_t items);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Grow to cover at least `items` items. NOT safe concurrently with
  /// acquire/release; the executor only grows between rounds.
  void grow(std::size_t items);

  /// Try to take `item` for the iteration tagged `owner`: kTaken if it was
  /// free, kHeld if `owner` already owns it, kConflict otherwise.
  [[nodiscard]] LockResult acquire(std::uint32_t item, std::uint32_t owner);

  /// Current owner (kFree if unowned). For assertions and tests.
  [[nodiscard]] std::uint32_t owner(std::uint32_t item) const;

  /// Release one item owned by `owner` (asserts ownership in debug builds).
  void release(std::uint32_t item, std::uint32_t owner);

  // --- single-lane fast-path variants (DESIGN.md §12) ---------------------
  // Same ownership semantics and bounds checks as acquire/release, but
  // relaxed loads/plain stores instead of a CAS and a release fence. Legal
  // ONLY while exactly one thread touches the table (the executor's serial
  // round path); mixing them with concurrent acquires is a data race by
  // construction. Inline: the serial round calls these per held item.

  [[nodiscard]] LockResult acquire_relaxed(std::uint32_t item,
                                           std::uint32_t owner) {
    assert(owner != kFree && "an owner tag must differ from kFree");
    auto& word = word_at(item);
    const std::uint32_t cur = word.load(std::memory_order_relaxed);
    if (cur == kFree) {
      word.store(owner, std::memory_order_relaxed);
      return LockResult::kTaken;
    }
    return cur == owner ? LockResult::kHeld : LockResult::kConflict;
  }

  void release_relaxed(std::uint32_t item, std::uint32_t owner) {
    auto& word = word_at(item);
    assert(word.load(std::memory_order_relaxed) == owner &&
           "releasing an item not owned by this iteration");
    (void)owner;
    word.store(kFree, std::memory_order_relaxed);
  }

  // --- batch release (DESIGN.md §12) --------------------------------------
  // Free every item of `items`, whatever its owner; each must be owned
  // (asserted in debug builds) and was bounds-checked when it was taken.
  // A round's hold list is a pass of random stores over the table, so each
  // store's word is prefetched a fixed distance ahead.

  void release_batch(std::span<const std::uint32_t> items) noexcept;
  /// Relaxed stores: single-lane rounds only, as for acquire_relaxed.
  void release_batch_relaxed(std::span<const std::uint32_t> items) noexcept;

  /// True iff no item is owned — the executor checks this between rounds.
  [[nodiscard]] bool all_free() const;

  /// Number of currently owned items — failure-path diagnostic (a leaked
  /// lock after a salvaged round shows up here before all_free() trips an
  /// assert in release builds where asserts are compiled out).
  [[nodiscard]] std::size_t owned_count() const;

 private:
  std::atomic<std::uint32_t>& word_at(std::uint32_t item) const {
    if (item >= size_) {
      throw std::out_of_range("LockManager: unknown item");
    }
    return owners_[item];
  }

  // Atomics are neither copyable nor movable, so growth re-creates the
  // array and copies the raw values — safe because grow() is only legal
  // between rounds, when no acquire/release is in flight.
  std::unique_ptr<std::atomic<std::uint32_t>[]> owners_;
  std::size_t size_ = 0;
};

}  // namespace optipar
