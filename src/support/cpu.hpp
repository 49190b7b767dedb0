// Host CPU topology queries for the runtime's processor-allocation
// decisions. The round executor caps its lane count at the host's
// effective concurrency: on the paper's model an extra "processor" only
// ever adds conflict surface, and on a machine with fewer cores than pool
// workers it additionally buys a context-switch-ridden barrier — so
// oversubscribed lanes are pure loss (DESIGN.md §12).
#pragma once

#include <cstddef>
#include <thread>

namespace optipar {

/// Number of lanes that can actually run concurrently on this host
/// (>= 1), resolved once per process. `PipelineConfig::max_lanes` pins the
/// lane count where a caller needs a different cap.
inline std::size_t effective_concurrency() noexcept {
  static const std::size_t cached = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw == 0 ? 1 : hw);
  }();
  return cached;
}

}  // namespace optipar
