// Shared helpers for the experiment binaries: banner printing, standard
// graph constructions used by the paper's figures, and controller-trace
// summarization.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "control/factory.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "sim/run_loop.hpp"
#include "support/csv.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/telemetry/telemetry.hpp"
#include "support/timer.hpp"

namespace optipar::bench {

inline void banner(const std::string& title) {
  std::cout << "\n==== " << title << " ====\n";
}

inline void note(const std::string& text) { std::cout << text << "\n"; }

/// Named wall-clock phase breakdown for experiment binaries, built on the
/// telemetry layer's ScopedTimer/TimerSet pair (DESIGN.md §10). Usage:
///
///     bench::PhaseClock phases;
///     { ScopedTimer t(phases.acc("find-mu")); mu = find_mu(...); }
///     phases.report();
class PhaseClock {
 public:
  /// Stable accumulator pointer for `name` — hand it to a ScopedTimer.
  [[nodiscard]] TimerAccumulator* acc(const std::string& name) {
    return &timers_.at(name);
  }

  /// Print "  [time] name: X.X ms over N span(s)" per phase, name-sorted.
  void report() const {
    for (const auto& e : timers_.snapshot()) {
      std::cout << "  [time] " << e.name << ": "
                << static_cast<double>(e.total_ns) * 1e-6 << " ms over "
                << e.count << " span(s)\n";
    }
  }

 private:
  telemetry::TimerSet timers_;
};

/// Fig. 2's third curve: a union of cliques PLUS disconnected nodes, with
/// overall average degree ≈ d. Uses cliques of size (k+1) covering the
/// fraction d/k of the nodes (k > d), the rest isolated.
inline CsrGraph cliques_and_isolated_with_degree(NodeId n, std::uint32_t d,
                                                 std::uint32_t clique_degree) {
  const std::uint32_t k = clique_degree;  // degree inside each clique
  const NodeId clique_size = k + 1;
  // x nodes in cliques: x·k / n = d  =>  x = n·d/k, rounded to a multiple
  // of the clique size.
  NodeId in_cliques = static_cast<NodeId>(
      static_cast<std::uint64_t>(n) * d / k);
  in_cliques -= in_cliques % clique_size;
  const auto base = gen::union_of_cliques(in_cliques, k);
  return CsrGraph::from_edges(n, base.edges());  // rest stay isolated
}

/// optipar::make_controller (control/factory.hpp), with an unknown name
/// fatal: the experiment binaries name their controllers in code.
inline std::unique_ptr<Controller> controller_or_exit(
    const std::string& name, const ControllerParams& params) {
  std::unique_ptr<Controller> controller = make_controller(name, params);
  if (controller == nullptr) {
    std::cerr << "unknown controller: " << name << "\n";
    std::exit(2);
  }
  return controller;
}

struct TraceSummary {
  std::string controller;
  std::size_t rounds = 0;
  std::size_t convergence_step = 0;
  double mean_ratio_steady = 0.0;
  double rms_error = 0.0;
  double wasted = 0.0;
  std::uint64_t committed = 0;
};

inline TraceSummary summarize(const std::string& name, const Trace& trace,
                              double mu_ref, double band = 0.25) {
  TraceSummary s;
  s.controller = name;
  s.rounds = trace.steps.size();
  s.convergence_step = trace.convergence_step(mu_ref, band, 5);
  const std::size_t steady = std::min(s.convergence_step, s.rounds);
  s.mean_ratio_steady = trace.mean_conflict_ratio(steady);
  s.rms_error = trace.rms_relative_error(mu_ref, steady);
  s.wasted = trace.wasted_fraction();
  s.committed = trace.total_committed();
  return s;
}

}  // namespace optipar::bench
