// Seeded input generators owned by the benchmark. They use their own
// random stream (SplitMix64) rather than the program's support/rng.hpp or
// graph/generators.cpp, so a change to either cannot change a workload
// unnoticed: every run prints a fingerprint of the edge list it solved.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace perfbench {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

 private:
  std::uint64_t state_;
};

/// An undirected input graph: distinct edges (u < v), sorted, no
/// self-loops, with one weight per edge when the workload is weighted.
struct Input {
  std::uint32_t n = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<double> weights;
};

/// Collect `m` distinct undirected edges from `draw`, which proposes
/// endpoint pairs; self-loops and repeats are dropped and redrawn.
template <typename Draw>
std::vector<std::pair<std::uint32_t, std::uint32_t>> distinct_edges(
    std::uint64_t m, Draw&& draw) {
  std::vector<std::uint64_t> keys;
  keys.reserve(m);
  while (keys.size() < m) {
    while (keys.size() < m) {
      auto [a, b] = draw();
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      keys.push_back(static_cast<std::uint64_t>(a) << 32 | b);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    edges[i] = {static_cast<std::uint32_t>(keys[i] >> 32),
                static_cast<std::uint32_t>(keys[i])};
  }
  return edges;
}

/// Erdős–Rényi G(n, M): M distinct edges chosen uniformly.
inline Input gnm(std::uint32_t n, std::uint64_t m, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Input in;
  in.n = n;
  in.edges = distinct_edges(m, [&] {
    const std::uint32_t a = rng.below(n);
    return std::pair{a, rng.below(n)};
  });
  return in;
}

/// R-MAT with quadrant probabilities (a, b, c, 1 - a - b - c) over the
/// smallest power-of-two id space holding n nodes; ids >= n are redrawn.
inline Input rmat(std::uint32_t n, std::uint64_t m, double a, double b,
                  double c, std::uint64_t seed) {
  SplitMix64 rng(seed);
  const int scale = std::bit_width(n - 1);
  Input in;
  in.n = n;
  in.edges = distinct_edges(m, [&] {
    for (;;) {
      std::uint32_t u = 0;
      std::uint32_t v = 0;
      for (int bit = 0; bit < scale; ++bit) {
        const double r = rng.unit();
        const std::uint32_t down = r >= a + b ? 1 : 0;
        const std::uint32_t right = (r >= a && r < a + b) || r >= a + b + c;
        u = u << 1 | down;
        v = v << 1 | right;
      }
      if (u < n && v < n) return std::pair{u, v};
    }
  });
  return in;
}

/// One weight per edge, uniform in (0, hi].
inline void add_weights(Input& in, double hi, std::uint64_t seed) {
  SplitMix64 rng(seed);
  in.weights.resize(in.edges.size());
  for (double& w : in.weights) w = hi * (1.0 - rng.unit());
}

/// FNV-1a over n, the edge list and the weights' bit patterns.
inline std::uint64_t fingerprint(const Input& in) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(in.n);
  for (const auto& [u, v] : in.edges) {
    mix(static_cast<std::uint64_t>(u) << 32 | v);
  }
  for (const double w : in.weights) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &w, sizeof bits);
    mix(bits);
  }
  return h;
}

}  // namespace perfbench
