// The benchmark's own serial yardsticks and answer checks. They run over
// adjacency arrays the benchmark builds itself and share no code with the
// program, so they stay a fixed reference when the program changes:
//   * greedy MIS in node order, first-fit coloring in node order, and
//     Kruskal with its own union-find are the serial solves every parallel
//     solve is divided by (COST);
//   * the checks judge every answer on top of the program's certificate.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace perfbench {

struct Adjacency {
  std::uint32_t n = 0;
  std::uint32_t max_degree = 0;
  std::vector<std::uint32_t> offset;  // n + 1
  std::vector<std::uint32_t> nbr;

  explicit Adjacency(const Input& in) : n(in.n), offset(in.n + 1, 0) {
    for (const auto& [u, v] : in.edges) {
      ++offset[u + 1];
      ++offset[v + 1];
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      max_degree = std::max(max_degree, offset[v + 1]);
      offset[v + 1] += offset[v];
    }
    nbr.resize(offset[n]);
    std::vector<std::uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (const auto& [u, v] : in.edges) {
      nbr[cursor[u]++] = v;
      nbr[cursor[v]++] = u;
    }
  }

  [[nodiscard]] std::span<const std::uint32_t> neighbors(
      std::uint32_t v) const {
    return {nbr.data() + offset[v], nbr.data() + offset[v + 1]};
  }
};

/// Greedy MIS in node order: v joins iff no earlier neighbour joined.
/// Returns the set size.
inline std::uint32_t serial_mis(const Adjacency& g,
                                std::vector<std::uint8_t>& in) {
  in.assign(g.n, 0);
  std::uint32_t size = 0;
  for (std::uint32_t v = 0; v < g.n; ++v) {
    bool blocked = false;
    for (const std::uint32_t w : g.neighbors(v)) {
      if (in[w] != 0) {
        blocked = true;
        break;
      }
    }
    in[v] = blocked ? 0 : 1;
    size += in[v];
  }
  return size;
}

/// First-fit coloring in node order. Returns the number of colours used.
inline std::uint32_t serial_coloring(const Adjacency& g,
                                     std::vector<std::uint32_t>& color,
                                     std::vector<std::uint32_t>& seen_by) {
  color.assign(g.n, UINT32_MAX);
  seen_by.assign(static_cast<std::size_t>(g.max_degree) + 1, UINT32_MAX);
  std::uint32_t used = 0;
  for (std::uint32_t v = 0; v < g.n; ++v) {
    for (const std::uint32_t w : g.neighbors(v)) {
      if (color[w] != UINT32_MAX) seen_by[color[w]] = v;
    }
    std::uint32_t c = 0;
    while (seen_by[c] == v) ++c;
    color[v] = c;
    used = std::max(used, c + 1);
  }
  return used;
}

struct Forest {
  double weight = 0.0;
  std::uint32_t edges = 0;  // n - number of components
};

/// Kruskal with path-halving, union-by-size union-find.
inline Forest serial_kruskal(const Input& in,
                             std::vector<std::uint32_t>& order,
                             std::vector<std::uint32_t>& parent,
                             std::vector<std::uint32_t>& size) {
  order.resize(in.edges.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&in](std::uint32_t a, std::uint32_t b) {
              if (in.weights[a] != in.weights[b]) {
                return in.weights[a] < in.weights[b];
              }
              return in.edges[a] < in.edges[b];
            });
  parent.resize(in.n);
  std::iota(parent.begin(), parent.end(), 0u);
  size.assign(in.n, 1);
  auto find = [&parent](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  Forest f;
  for (const std::uint32_t e : order) {
    std::uint32_t a = find(in.edges[e].first);
    std::uint32_t b = find(in.edges[e].second);
    if (a == b) continue;
    if (size[a] < size[b]) std::swap(a, b);
    parent[b] = a;
    size[a] += size[b];
    f.weight += in.weights[e];
    ++f.edges;
  }
  return f;
}

// --- answer checks: "" when the answer holds, else what broke -------------

/// `state(v)` is 0 (out), 1 (in) or anything else (undecided).
template <typename State>
std::string check_mis(const Adjacency& g, State&& state) {
  for (std::uint32_t v = 0; v < g.n; ++v) {
    const int s = state(v);
    if (s != 0 && s != 1) {
      return "mis: node " + std::to_string(v) + " undecided";
    }
    bool has_in_neighbor = false;
    for (const std::uint32_t w : g.neighbors(v)) {
      if (state(w) == 1) {
        has_in_neighbor = true;
        break;
      }
    }
    if (s == 1 && has_in_neighbor) {
      return "mis: node " + std::to_string(v) + " has a neighbour in the set";
    }
    if (s == 0 && !has_in_neighbor) {
      return "mis: node " + std::to_string(v) + " could join the set";
    }
  }
  return {};
}

/// Proper colouring within Δ + 1 colours.
template <typename Color>
std::string check_coloring(const Adjacency& g, Color&& color) {
  for (std::uint32_t v = 0; v < g.n; ++v) {
    const std::uint32_t c = color(v);
    if (c == UINT32_MAX) {
      return "coloring: node " + std::to_string(v) + " uncoloured";
    }
    if (c > g.max_degree) {
      return "coloring: node " + std::to_string(v) + " has colour " +
             std::to_string(c) + " beyond max degree + 1 colours";
    }
    for (const std::uint32_t w : g.neighbors(v)) {
      if (color(w) == c) {
        return "coloring: edge " + std::to_string(v) + "-" +
               std::to_string(w) + " is monochromatic";
      }
    }
  }
  return {};
}

/// Spanning-forest weight equal to Kruskal's within 1e-9 relative, with
/// n - (number of components) edges.
inline std::string check_forest(const Forest& ref, double weight,
                                std::uint32_t edges) {
  if (edges != ref.edges) {
    return "forest: " + std::to_string(edges) + " edges, expected " +
           std::to_string(ref.edges);
  }
  if (std::abs(weight - ref.weight) >
      1e-9 * std::max(1.0, std::abs(ref.weight))) {
    return "forest: weight " + std::to_string(weight) + ", Kruskal " +
           std::to_string(ref.weight);
  }
  return {};
}

}  // namespace perfbench
