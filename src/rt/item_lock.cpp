#include "rt/item_lock.hpp"

namespace optipar {

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

std::size_t LockManager::owned_count() const {
  std::size_t owned = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    if (owners_[i].load(std::memory_order_acquire) != kFree) ++owned;
  }
  return owned;
}

bool LockManager::all_free() const { return owned_count() == 0; }

}  // namespace optipar
