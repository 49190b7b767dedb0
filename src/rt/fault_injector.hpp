// Deterministic fault injection for the speculative runtime (DESIGN.md §8).
// Chaos runs must replay byte-identically under a fixed seed — the same
// property the golden-trace tests pin for the fault-free schedule — so an
// injection decision may not depend on thread interleaving or wall-clock
// time. Every decision is therefore a *stateless* PRF evaluation over
//   (seed, site, a, b)
// where (a, b) identify the injection point stably across runs (typically
// the task id and its attempt number). Two runs with the same seed and the
// same per-task attempt history fire exactly the same faults, regardless of
// lane count or scheduling; the only mutable state is the per-site fired
// counters, which are reporting-only.
//
// Sites mirror the runtime's failure surface:
//   kOperatorThrow   — the user operator throws a real (non-Abort) error
//   kOperatorDelay   — the task stalls mid-operator (slow/hung iteration)
//   kLockAcquire     — an abstract-lock acquire stalls before acquiring
//   kPoolLane        — a fork-join pool lane dies outside any task
// The injector's PRF is keyed by the site's value, so the values are
// fixed and a retired value is never reused: value 2 (once a
// rollback-inverse throw) stays reserved.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace optipar {

enum class FaultSite : std::uint32_t {
  kOperatorThrow = 0,
  kOperatorDelay = 1,
  kLockAcquire = 3,
  kPoolLane = 4,
};
/// Per-site table size: one past the largest site value (2 is unused).
inline constexpr std::size_t kFaultSiteCount = 5;

[[nodiscard]] const char* fault_site_name(FaultSite site) noexcept;

/// The exception every throwing site raises. Deliberately NOT derived from
/// AbortIteration: the runtime must treat it as an application failure
/// (retry/quarantine), never as a benign speculative conflict.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(FaultSite site, std::uint64_t a, std::uint64_t b);

  [[nodiscard]] FaultSite site() const noexcept { return site_; }

 private:
  FaultSite site_;
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed) noexcept : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Set one site's firing probability (clamped to [0, 1]).
  void set_rate(FaultSite site, double rate) noexcept;
  /// Set every site's firing probability at once.
  void set_all_rates(double rate) noexcept;
  [[nodiscard]] double rate(FaultSite site) const noexcept;

  /// The pure decision function: does `site` fire at point (a, b)?
  /// Stateless and thread-safe; identical across runs with the same seed.
  [[nodiscard]] bool should_fire(FaultSite site, std::uint64_t a,
                                 std::uint64_t b) const noexcept;

  /// Throw InjectedFault iff the site fires at (a, b); counts the firing.
  void maybe_throw(FaultSite site, std::uint64_t a, std::uint64_t b);

  /// Stall (bounded, deterministic-length yield loop) iff the site fires
  /// at (a, b); counts the firing. Never throws.
  void maybe_stall(FaultSite site, std::uint64_t a,
                   std::uint64_t b) noexcept;

  /// Telemetry hook (DESIGN.md §10): invoked on every counted firing with
  /// the site and its (a, b) injection point. MUST be thread-safe — firings
  /// happen on pool lanes — and must not throw. Empty function detaches.
  /// Never alters the firing decision, so chaos replays are unaffected.
  void set_fire_hook(
      std::function<void(FaultSite, std::uint64_t, std::uint64_t)> hook) {
    on_fire_ = std::move(hook);
  }

  [[nodiscard]] std::uint64_t fired(FaultSite site) const noexcept;
  [[nodiscard]] std::uint64_t total_fired() const noexcept;

 private:
  [[nodiscard]] std::uint64_t mix(FaultSite site, std::uint64_t a,
                                  std::uint64_t b) const noexcept;

  std::uint64_t seed_;
  std::array<double, kFaultSiteCount> rates_{};
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> fired_{};
  std::function<void(FaultSite, std::uint64_t, std::uint64_t)> on_fire_;
};

}  // namespace optipar
