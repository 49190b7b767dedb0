#include "rt/item_lock.hpp"

namespace optipar {

namespace {

// How many items ahead a batch release prefetches the owner word.
constexpr std::size_t kPrefetchAhead = 16;

template <std::memory_order kOrder>
void free_words(std::atomic<std::uint32_t>* owners,
                std::span<const std::uint32_t> items) noexcept {
  const std::size_t n = items.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      __builtin_prefetch(&owners[items[i + kPrefetchAhead]], 1);
    }
    std::atomic<std::uint32_t>& word = owners[items[i]];
    assert(word.load(std::memory_order_relaxed) != LockManager::kFree &&
           "releasing an item nobody owns");
    word.store(LockManager::kFree, kOrder);
  }
}

}  // namespace

LockManager::LockManager(std::size_t items) { grow(items); }

void LockManager::grow(std::size_t items) {
  if (items <= size_) return;
  auto fresh = std::make_unique<std::atomic<std::uint32_t>[]>(items);
  for (std::size_t i = 0; i < size_; ++i) {
    fresh[i].store(owners_[i].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  for (std::size_t i = size_; i < items; ++i) {
    fresh[i].store(kFree, std::memory_order_relaxed);
  }
  owners_ = std::move(fresh);
  size_ = items;
}

LockResult LockManager::acquire(std::uint32_t item, std::uint32_t owner) {
  assert(owner != kFree && "an owner tag must differ from kFree");
  auto& word = word_at(item);
  std::uint32_t expected = kFree;
  if (word.compare_exchange_strong(expected, owner, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return LockResult::kTaken;
  }
  return expected == owner ? LockResult::kHeld : LockResult::kConflict;
}

std::uint32_t LockManager::owner(std::uint32_t item) const {
  return word_at(item).load(std::memory_order_acquire);
}

void LockManager::release(std::uint32_t item, std::uint32_t owner) {
  auto& word = word_at(item);
  assert(word.load(std::memory_order_relaxed) == owner &&
         "releasing an item not owned by this iteration");
  (void)owner;
  word.store(kFree, std::memory_order_release);
}

void LockManager::release_batch(
    std::span<const std::uint32_t> items) noexcept {
  free_words<std::memory_order_release>(owners_.get(), items);
}

void LockManager::release_batch_relaxed(
    std::span<const std::uint32_t> items) noexcept {
  free_words<std::memory_order_relaxed>(owners_.get(), items);
}

std::size_t LockManager::owned_count() const {
  std::size_t owned = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    if (owners_[i].load(std::memory_order_acquire) != kFree) ++owned;
  }
  return owned;
}

bool LockManager::all_free() const { return owned_count() == 0; }

}  // namespace optipar
