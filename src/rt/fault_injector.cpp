#include "rt/fault_injector.hpp"

#include <algorithm>
#include <thread>

namespace optipar {

namespace {

/// SplitMix64 finalizer — the same mixer rng.hpp uses for seeding, applied
/// here as a stateless PRF over the (seed, site, a, b) tuple.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr double to_unit(std::uint64_t x) noexcept {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

const char* fault_site_name(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::kOperatorThrow: return "operator-throw";
    case FaultSite::kOperatorDelay: return "operator-delay";
    case FaultSite::kLockAcquire: return "lock-acquire";
    case FaultSite::kPoolLane: return "pool-lane";
  }
  return "unknown";
}

InjectedFault::InjectedFault(FaultSite site, std::uint64_t a, std::uint64_t b)
    : std::runtime_error(std::string("injected fault [") +
                         fault_site_name(site) + "] at (" +
                         std::to_string(a) + ", " + std::to_string(b) + ")"),
      site_(site) {}

void FaultInjector::set_rate(FaultSite site, double rate) noexcept {
  rates_[static_cast<std::size_t>(site)] = std::clamp(rate, 0.0, 1.0);
}

void FaultInjector::set_all_rates(double rate) noexcept {
  rates_.fill(std::clamp(rate, 0.0, 1.0));
}

double FaultInjector::rate(FaultSite site) const noexcept {
  return rates_[static_cast<std::size_t>(site)];
}

std::uint64_t FaultInjector::mix(FaultSite site, std::uint64_t a,
                                 std::uint64_t b) const noexcept {
  // Three mixing rounds decorrelate the structured inputs (small dense task
  // ids and attempt counters) before thresholding.
  std::uint64_t z = seed_ + 0x9e3779b97f4a7c15ULL *
                                (static_cast<std::uint64_t>(site) + 1);
  z = mix64(z ^ mix64(a + 0x165667b19e3779f9ULL));
  z = mix64(z ^ mix64(b + 0x27d4eb2f165667c5ULL));
  return z;
}

bool FaultInjector::should_fire(FaultSite site, std::uint64_t a,
                                std::uint64_t b) const noexcept {
  const double r = rates_[static_cast<std::size_t>(site)];
  if (r <= 0.0) return false;
  if (r >= 1.0) return true;
  return to_unit(mix(site, a, b)) < r;
}

void FaultInjector::maybe_throw(FaultSite site, std::uint64_t a,
                                std::uint64_t b) {
  if (!should_fire(site, a, b)) return;
  fired_[static_cast<std::size_t>(site)].fetch_add(1,
                                                   std::memory_order_relaxed);
  if (on_fire_) on_fire_(site, a, b);
  throw InjectedFault(site, a, b);
}

void FaultInjector::maybe_stall(FaultSite site, std::uint64_t a,
                                std::uint64_t b) noexcept {
  if (!should_fire(site, a, b)) return;
  fired_[static_cast<std::size_t>(site)].fetch_add(1,
                                                   std::memory_order_relaxed);
  if (on_fire_) on_fire_(site, a, b);
  // Bounded stall: 1–64 yields, length drawn from the same PRF stream so
  // the delay profile replays under a fixed seed. A stall is observable
  // only as latency — it may reshuffle multi-lane conflict timing but can
  // never wedge a round (no locks are held across it by this call).
  const std::uint64_t yields = 1 + (mix(site, a ^ 0x5bf0ULL, b) & 63);
  for (std::uint64_t i = 0; i < yields; ++i) std::this_thread::yield();
}

std::uint64_t FaultInjector::fired(FaultSite site) const noexcept {
  return fired_[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::total_fired() const noexcept {
  std::uint64_t total = 0;
  for (const auto& f : fired_) total += f.load(std::memory_order_relaxed);
  return total;
}

}  // namespace optipar
