// SCHED-COMPARE — the two draw backends (DESIGN.md §14) head-to-head on
// the paper's irregular-graph workloads: the paper's random draw and the
// zero-abort chromatic rounds. For each workload × backend:
// time-to-solution, rounds, launched / committed / aborted, conflict
// ratio. Emits a JSON document, headed by the host's CPU count and the
// most lanes any round ran on, that scripts/run_bench.sh merges into
// BENCH_rt.json["sched_compare"] and gates with the chromatic sentinel
// (zero aborts AND tts no worse than random).
//
// Timing discipline: --reps (default 3) full runs per cell, keep the
// fastest — same min-of-probes rejection of scheduler spikes as the
// telemetry-overhead probes in run_bench.sh.
//
// Usage: sched_compare [--nodes=4000] [--threads=4] [--m=256] [--reps=3]
//                      [--out=FILE]
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app_spec.hpp"
#include "apps/coloring/coloring.hpp"
#include "apps/mis/mis.hpp"
#include "bench_common.hpp"
#include "control/baselines.hpp"
#include "graph/algos.hpp"
#include "sched/scheduler.hpp"
#include "support/cpu.hpp"
#include "support/telemetry/conflict_profiler.hpp"
#include "support/telemetry/telemetry.hpp"

using namespace optipar;

namespace {

struct CellResult {
  double time_ms = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t launched = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  /// Abort locality (DESIGN.md §15): the fraction of attributed conflicts
  /// concentrated on the 16 hottest items. The chromatic backend has no
  /// aborts (reported as 0); for the random draw this shows how much of
  /// the contention the hubs cause, the paper's motivating observation.
  double top16_share = 0.0;
  std::uint64_t profiled_conflicts = 0;
  std::size_t lanes = 0;  ///< most lanes any round of the drain ran on
  bool correct = false;

  [[nodiscard]] double conflict_ratio() const {
    return launched == 0
               ? 0.0
               : static_cast<double>(aborted) / static_cast<double>(launched);
  }
};

struct SchedWorkload {
  std::string name;
  const CsrGraph* graph = nullptr;
  std::string app;  ///< "coloring" | "mis"
};

/// One full drain of `app` on `g` under `backend`. The operator and its
/// oracle are the real application kernels; the only variable is who owns
/// the draw.
CellResult run_cell(const SchedWorkload& wl, sched::Backend backend,
                    ThreadPool& pool, std::uint32_t m, std::uint64_t seed) {
  const CsrGraph& g = *wl.graph;
  coloring::ColoringState colors(g.num_nodes());
  mis::MisState mis_state(g.num_nodes());
  const AppSpec spec = wl.app == "coloring"
                           ? coloring::make_spec(g, colors)
                           : mis::make_spec(g, mis_state);

  CellResult out;
  const auto t0 = std::chrono::steady_clock::now();
  const auto ex = build_executor(pool, spec, seed,
                                 RoundOptions{.scheduler = backend});
  // Conflict attribution rides every rep, so the reported cell keeps the
  // locality measured in its own run. Recording is one relaxed fetch_add
  // per abort, but it is not free: it slows the random cell, which aborts,
  // and not the chromatic one, which does not.
  telemetry::RuntimeTelemetry tel;
  telemetry::ConflictProfiler prof(g.num_nodes());
  {
    std::vector<std::uint32_t> degrees(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) degrees[v] = g.degree(v);
    prof.set_degrees(std::move(degrees));
  }
  tel.set_profiler(&prof);
  ex->set_telemetry(&tel);
  FixedController controller(m);
  (void)drain(*ex, spec, controller);
  const auto t1 = std::chrono::steady_clock::now();

  out.time_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.rounds = ex->totals().rounds;
  out.launched = ex->totals().launched;
  out.committed = ex->totals().committed;
  out.aborted = ex->totals().aborted;
  out.top16_share = prof.top_share(16);
  out.profiled_conflicts = prof.total_conflicts();
  out.lanes = tel.lane_count();
  out.correct = wl.app == "coloring"
                    ? colors.is_proper(g)
                    : is_maximal_independent_set(g, mis_state.in_set());
  return out;
}

void emit_cell(std::ostream& os, const std::string& backend,
               const CellResult& r, bool last) {
  os << "   \"" << backend << "\": {"
     << "\"time_ms\": " << r.time_ms << ", \"rounds\": " << r.rounds
     << ", \"launched\": " << r.launched
     << ", \"committed\": " << r.committed << ", \"aborted\": " << r.aborted
     << ", \"conflict_ratio\": " << r.conflict_ratio()
     << ", \"top16_share\": " << r.top16_share
     << ", \"profiled_conflicts\": " << r.profiled_conflicts
     << ", \"correct\": " << (r.correct ? "true" : "false") << "}"
     << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const auto nodes = static_cast<NodeId>(opt.get_int("nodes", 4000));
  const auto threads = static_cast<std::size_t>(opt.get_int("threads", 4));
  const auto m = static_cast<std::uint32_t>(opt.get_int("m", 256));
  const int reps = static_cast<int>(opt.get_int("reps", 3));
  ThreadPool pool(threads);

  // The paper's irregular inputs: a skewed RMAT power-law graph and a
  // Barabási–Albert preferential-attachment graph — both conflict-dense
  // enough that the draw policy is the dominant cost driver.
  Rng rmat_rng(101);
  const CsrGraph rmat_graph =
      gen::rmat(nodes, static_cast<std::uint64_t>(nodes) * 8, 0.55, 0.15,
                0.15, rmat_rng);
  Rng ba_rng(102);
  const CsrGraph ba_graph = gen::barabasi_albert(nodes, 8, ba_rng);

  const std::vector<SchedWorkload> workloads = {
      {"rmat-coloring", &rmat_graph, "coloring"},
      {"rmat-mis", &rmat_graph, "mis"},
      {"ba-coloring", &ba_graph, "coloring"},
      {"ba-mis", &ba_graph, "mis"},
  };
  const std::vector<std::pair<std::string, sched::Backend>> backends = {
      {"random", sched::Backend::kRandom},
      {"chromatic", sched::Backend::kChromatic},
  };

  std::ostringstream json;  // the "workloads" object; the header goes last
  std::size_t lanes = 0;
  bool first_wl = true;
  for (const SchedWorkload& wl : workloads) {
    bench::banner(wl.name + " (" + std::to_string(nodes) + " nodes, m=" +
                  std::to_string(m) + ")");
    if (!first_wl) json << "  ,\n";
    first_wl = false;
    json << "  \"" << wl.name << "\": {\n";
    for (std::size_t b = 0; b < backends.size(); ++b) {
      const auto& [name, backend] = backends[b];
      CellResult best;
      for (int rep = 0; rep < reps; ++rep) {
        const CellResult r = run_cell(wl, backend, pool, m, 33 + rep);
        if (rep == 0 || r.time_ms < best.time_ms) best = r;
        lanes = std::max(lanes, r.lanes);
      }
      std::cout << "  " << name << ": " << best.time_ms << " ms, "
                << best.rounds << " rounds, aborted " << best.aborted
                << " / launched " << best.launched << " (r="
                << best.conflict_ratio() << ", top16_share="
                << best.top16_share << ") correct="
                << (best.correct ? "yes" : "NO") << "\n";
      emit_cell(json, name, best, b + 1 == backends.size());
      if (!best.correct) {
        std::cerr << "sched_compare: " << wl.name << "/" << name
                  << " produced an INCORRECT answer\n";
        return 1;
      }
    }
    json << "  }\n";
  }
  const std::string doc =
      "{\n \"nodes\": " + std::to_string(nodes) +
      ",\n \"threads\": " + std::to_string(threads) +
      ",\n \"num_cpus\": " + std::to_string(effective_concurrency()) +
      ",\n \"lanes\": " + std::to_string(lanes) +
      ",\n \"m\": " + std::to_string(m) +
      ",\n \"reps\": " + std::to_string(reps) +
      ",\n \"workloads\": {\n" + json.str() + " }\n}\n";

  if (opt.has("out")) {
    std::ofstream os(opt.get("out", ""));
    if (!os) {
      std::cerr << "sched_compare: cannot open --out="
                << opt.get("out", "") << "\n";
      return 1;
    }
    os << doc;
  } else {
    bench::banner("json");
    std::cout << doc;
  }
  return 0;
}
