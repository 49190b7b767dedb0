#include "support/telemetry/conflict_profiler.hpp"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <ostream>

namespace optipar::telemetry {

ConflictProfiler::ConflictProfiler(std::uint32_t num_items)
    : conflicts_(num_items) {}

void ConflictProfiler::set_degrees(std::vector<std::uint32_t> degrees) {
  degrees_ = std::move(degrees);
}

std::uint64_t ConflictProfiler::total_conflicts() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : conflicts_) {
    total += c.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<ConflictProfiler::Hotspot> ConflictProfiler::top_k(
    std::size_t k) const {
  std::vector<Hotspot> all;
  for (std::uint32_t item = 0; item < conflicts_.size(); ++item) {
    const std::uint64_t c = conflicts_[item].load(std::memory_order_relaxed);
    if (c == 0) continue;
    Hotspot h;
    h.item = item;
    h.conflicts = c;
    h.degree = item < degrees_.size() ? degrees_[item] : 0;
    all.push_back(h);
  }
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(take),
                    all.end(), [](const Hotspot& x, const Hotspot& y) {
                      if (x.conflicts != y.conflicts) {
                        return x.conflicts > y.conflicts;
                      }
                      return x.item < y.item;
                    });
  all.resize(take);
  return all;
}

double ConflictProfiler::top_share(std::size_t k) const {
  const std::uint64_t total = total_conflicts();
  if (total == 0) return 0.0;
  std::uint64_t top = 0;
  for (const Hotspot& h : top_k(k)) top += h.conflicts;
  return static_cast<double>(top) / static_cast<double>(total);
}

std::vector<ConflictProfiler::DegreeBucket>
ConflictProfiler::degree_buckets() const {
  // Bucket b >= 1 covers degrees [2^(b-1), 2^b - 1]; bucket 0 is degree 0.
  constexpr std::size_t kMaxBuckets = 33;
  std::vector<DegreeBucket> buckets(kMaxBuckets);
  for (std::uint32_t item = 0; item < conflicts_.size(); ++item) {
    const std::uint32_t deg =
        item < degrees_.size() ? degrees_[item] : 0;
    const std::size_t b = deg == 0 ? 0 : std::bit_width(deg);
    DegreeBucket& bucket = buckets[std::min(b, kMaxBuckets - 1)];
    ++bucket.items;
    bucket.conflicts += conflicts_[item].load(std::memory_order_relaxed);
  }
  std::vector<DegreeBucket> out;
  for (std::size_t b = 0; b < kMaxBuckets; ++b) {
    if (buckets[b].items == 0) continue;
    buckets[b].degree_lo = b == 0 ? 0 : std::uint64_t{1} << (b - 1);
    buckets[b].degree_hi = b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
    out.push_back(buckets[b]);
  }
  return out;
}

void ConflictProfiler::write_json(std::ostream& os, std::size_t k) const {
  os << "{\"schema\":\"optipar.profile.v3\",\"items\":" << num_items()
     << ",\"total_conflicts\":" << total_conflicts()
     << ",\"top_share_16\":" << top_share(16) << ",\"hotspots\":[";
  bool first = true;
  for (const Hotspot& h : top_k(k)) {
    if (!first) os << ",";
    first = false;
    os << "{\"item\":" << h.item << ",\"conflicts\":" << h.conflicts
       << ",\"degree\":" << h.degree << "}";
  }
  os << "],\"degree_buckets\":[";
  first = true;
  for (const DegreeBucket& b : degree_buckets()) {
    if (!first) os << ",";
    first = false;
    os << "{\"degree_lo\":" << b.degree_lo << ",\"degree_hi\":" << b.degree_hi
       << ",\"items\":" << b.items << ",\"conflicts\":" << b.conflicts
       << "}";
  }
  os << "]}\n";
}

void ConflictProfiler::write_report(std::ostream& os, std::size_t k) const {
  os << "conflict hotspots (top " << k << " of " << num_items()
     << " items, " << total_conflicts() << " conflicts attributed):\n";
  os << "  item        conflicts   degree\n";
  for (const Hotspot& h : top_k(k)) {
    os << "  " << std::setw(10) << std::left << h.item << std::right
       << std::setw(11) << h.conflicts << std::setw(9) << h.degree << "\n";
  }
  os << "degree buckets:\n";
  for (const DegreeBucket& b : degree_buckets()) {
    os << "  deg [" << b.degree_lo << ", " << b.degree_hi << "]: "
       << b.items << " items, " << b.conflicts << " conflicts\n";
  }
}

}  // namespace optipar::telemetry
