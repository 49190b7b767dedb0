// APPS-BENCH — real application kernels (MIS, greedy coloring, SSSP) run
// through the speculative executor with the conflict-attribution profiler
// attached (DESIGN.md §15). Three products per run:
//
//   * one conflict-ratio curve r̄(m) per app (the paper's Fig. 2 shape),
//     measured on the real runtime (not the sampling model) by draining the
//     workload at a sweep of fixed allocations, with the per-m
//     abort-locality scalar (top16_share) and wall time riding along;
//   * a time-to-solution figure per app at the reference allocation; and
//   * the MIS hotspot report at the reference allocation — WHICH items kill
//     speculative work, with their degrees, plus the degree-bucket rollup.
//
// Every drain is certified by the independent verify:: oracle for its app
// (DESIGN.md §16) before its numbers are recorded — a refuted certificate
// aborts the bench, so BENCH_apps.json never contains numbers from a wrong
// answer.
//
// Emits a JSON document ({"schema":"optipar.bench.apps.v2"}) that seeds /
// refreshes BENCH_apps.json.
//
// Usage: apps_bench [--nodes=4000] [--d=8] [--threads=4] [--seed=7]
//                   [--m-ref=256] [--top=16] [--out=FILE]
#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app_spec.hpp"
#include "apps/coloring/coloring.hpp"
#include "apps/mis/mis.hpp"
#include "apps/sssp/sssp.hpp"
#include "bench_common.hpp"
#include "control/baselines.hpp"
#include "graph/algos.hpp"
#include "graph/weighted_graph.hpp"
#include "support/telemetry/conflict_profiler.hpp"
#include "support/telemetry/telemetry.hpp"
#include "verify/app_certs.hpp"

using namespace optipar;

namespace {

struct SweepPoint {
  std::uint32_t m = 0;
  double r = 0.0;            ///< aborted / launched over the whole drain
  std::uint64_t rounds = 0;
  std::uint64_t committed = 0;
  double top16_share = 0.0;  ///< abort locality at this allocation
  double elapsed_ms = 0.0;   ///< wall time of the drain (not the check)
};

/// One app's certified sweep: the curve plus the reference-allocation
/// answer and time-to-solution.
struct AppSeries {
  std::string app;
  double answer = 0.0;
  double time_to_solution_ms = 0.0;  ///< drain wall time at m_ref
  std::vector<SweepPoint> curve;
};

void seed_degrees(telemetry::ConflictProfiler& prof,
                  const std::vector<std::uint32_t>& degrees) {
  std::vector<std::uint32_t> deg = degrees;
  prof.set_degrees(std::move(deg));
}

/// Drain one fresh instance of `app` at fixed allocation `m` with the
/// profiler attached, then certify the answer through the app's
/// independent oracle. A refuted certificate invalidates the bench. SSSP
/// runs on `wg`, the other apps on `g`.
SweepPoint run_fixed(const std::string& app, const CsrGraph& g,
                     const WeightedGraph& wg, ThreadPool& pool,
                     std::uint32_t m, std::uint64_t seed,
                     telemetry::ConflictProfiler& prof,
                     double* answer = nullptr) {
  mis::MisState mis_state(g.num_nodes());
  coloring::ColoringState colors(g.num_nodes());
  const NodeId source = 0;
  sssp::DistanceTable dist(wg.num_nodes(), source);
  AppSpec spec;
  verify::Certifier certify;
  std::function<double()> answer_of;
  if (app == "mis") {
    spec = mis::make_spec(g, mis_state);
    certify = [&] { return verify::certify_mis(g, mis_state); };
    answer_of = [&] {
      return static_cast<double>(mis_state.in_set().size());
    };
  } else if (app == "coloring") {
    spec = coloring::make_spec(g, colors);
    certify = [&] { return verify::certify_coloring(g, colors); };
    answer_of = [&] { return static_cast<double>(colors.colors_used()); };
  } else {
    spec = sssp::make_spec(wg, dist);
    certify = [&] { return verify::certify_sssp(wg, source, dist.all()); };
    answer_of = [&] {
      return static_cast<double>(std::count_if(
          dist.all().begin(), dist.all().end(),
          [](double d) { return d != sssp::kUnreachable; }));
    };
  }
  const auto ex = build_executor(pool, spec, seed);
  telemetry::RuntimeTelemetry tel;
  tel.set_profiler(&prof);
  ex->set_telemetry(&tel);

  const auto t0 = std::chrono::steady_clock::now();
  FixedController controller(m);
  (void)drain(*ex, spec, controller);
  const auto t1 = std::chrono::steady_clock::now();
  const verify::Certificate cert = certify();
  if (!cert.ok()) {
    throw std::runtime_error("apps_bench: " + app + " refuted at m=" +
                             std::to_string(m) + ": " + cert.describe());
  }
  SweepPoint p;
  p.m = m;
  p.rounds = ex->totals().rounds;
  p.committed = ex->totals().committed;
  p.r = ex->totals().launched == 0
            ? 0.0
            : static_cast<double>(ex->totals().aborted) /
                  static_cast<double>(ex->totals().launched);
  p.top16_share = prof.top_share(16);
  p.elapsed_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (answer != nullptr) *answer = answer_of();
  return p;
}

void print_point(const SweepPoint& p) {
  std::cout << "  m=" << p.m << " r=" << p.r << " rounds=" << p.rounds
            << " committed=" << p.committed
            << " top16_share=" << p.top16_share << " elapsed_ms="
            << p.elapsed_ms << "\n";
}

void emit_series(std::ostringstream& json, const AppSeries& s, bool last) {
  json << "  {\"app\": \"" << s.app << "\", \"certified\": true, "
       << "\"answer\": " << s.answer << ", \"time_to_solution_ms\": "
       << s.time_to_solution_ms << ",\n   \"curve\": [\n";
  for (std::size_t i = 0; i < s.curve.size(); ++i) {
    const SweepPoint& p = s.curve[i];
    json << "    {\"m\": " << p.m << ", \"r\": " << p.r << ", \"rounds\": "
         << p.rounds << ", \"committed\": " << p.committed
         << ", \"top16_share\": " << p.top16_share << ", \"elapsed_ms\": "
         << p.elapsed_ms << "}" << (i + 1 < s.curve.size() ? "," : "")
         << "\n";
  }
  json << "   ]}" << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const auto nodes = static_cast<NodeId>(opt.get_int("nodes", 4000));
  const auto d = static_cast<std::uint32_t>(opt.get_int("d", 8));
  const auto threads = static_cast<std::size_t>(opt.get_int("threads", 4));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 7));
  const auto m_ref = static_cast<std::uint32_t>(opt.get_int("m-ref", 256));
  const auto top = static_cast<std::size_t>(opt.get_int("top", 16));
  ThreadPool pool(threads);

  Rng rng(41);
  const CsrGraph g = gen::rmat(
      nodes, static_cast<std::uint64_t>(nodes) * d, 0.55, 0.15, 0.15, rng);
  std::vector<std::uint32_t> degrees(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) degrees[v] = g.degree(v);

  // SSSP runs on the same topology with deterministic positive weights.
  std::vector<WeightedEdgeTriple> wedges;
  for (const auto& [u, v] : g.edges()) {
    wedges.push_back({u, v, rng.uniform() * 10.0 + 0.1});
  }
  const WeightedGraph wg = WeightedGraph::from_edges(g.num_nodes(), wedges);

  std::vector<AppSeries> apps;
  for (const std::string app : {"mis", "coloring", "sssp"}) {
    bench::banner(app + " on rmat (" + std::to_string(nodes) +
                  " nodes, d=" + std::to_string(d) + ")");
    AppSeries series;
    series.app = app;
    // Conflict-ratio curve: one fresh certified drain per allocation, each
    // with its own profiler so the locality scalar belongs to that m alone.
    for (std::uint32_t m = 1; m <= nodes; m *= 4) {
      telemetry::ConflictProfiler prof(g.num_nodes());
      seed_degrees(prof, degrees);
      const SweepPoint p = run_fixed(app, g, wg, pool, m, seed, prof);
      series.curve.push_back(p);
      print_point(p);
    }
    // Time-to-solution + answer at the reference allocation.
    telemetry::ConflictProfiler prof(g.num_nodes());
    seed_degrees(prof, degrees);
    const SweepPoint ref =
        run_fixed(app, g, wg, pool, m_ref, seed, prof, &series.answer);
    series.time_to_solution_ms = ref.elapsed_ms;
    std::cout << "  m_ref=" << m_ref << " answer=" << series.answer
              << " time_to_solution_ms=" << series.time_to_solution_ms
              << " certified=ok\n";
    apps.push_back(std::move(series));
  }

  // Hotspot report for MIS at the reference allocation (the app with the
  // strongest degree/conflict correlation on RMAT).
  telemetry::ConflictProfiler prof(g.num_nodes());
  seed_degrees(prof, degrees);
  const SweepPoint ref = run_fixed("mis", g, wg, pool, m_ref, seed, prof);
  bench::banner("mis hotspots at m=" + std::to_string(m_ref));
  prof.write_report(std::cout, top);

  std::ostringstream json;
  json << "{\n \"schema\": \"optipar.bench.apps.v2\",\n"
       << " \"graph\": {\"family\": \"rmat\", \"nodes\": " << nodes
       << ", \"avg_degree\": " << d << "},\n"
       << " \"threads\": " << threads << ",\n \"seed\": " << seed << ",\n"
       << " \"apps\": [\n";
  for (std::size_t i = 0; i < apps.size(); ++i) {
    emit_series(json, apps[i], i + 1 == apps.size());
  }
  json << " ],\n \"m_ref\": " << m_ref << ",\n \"ref_r\": " << ref.r
       << ",\n \"total_conflicts\": " << prof.total_conflicts()
       << ",\n \"hotspots\": [\n";
  const auto hot = prof.top_k(top);
  for (std::size_t i = 0; i < hot.size(); ++i) {
    json << "  {\"item\": " << hot[i].item << ", \"conflicts\": "
         << hot[i].conflicts << ", \"degree\": " << hot[i].degree << "}"
         << (i + 1 < hot.size() ? "," : "") << "\n";
  }
  json << " ],\n \"degree_buckets\": [\n";
  const auto buckets = prof.degree_buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto& b = buckets[i];
    json << "  {\"degree_lo\": " << b.degree_lo << ", \"degree_hi\": "
         << b.degree_hi << ", \"items\": " << b.items << ", \"conflicts\": "
         << b.conflicts << "}" << (i + 1 < buckets.size() ? "," : "") << "\n";
  }
  json << " ]\n}\n";

  if (opt.has("out")) {
    std::ofstream os(opt.get("out", ""));
    if (!os) {
      std::cerr << "apps_bench: cannot open --out=" << opt.get("out", "")
                << "\n";
      return 1;
    }
    os << json.str();
  } else {
    bench::banner("json");
    std::cout << json.str();
  }
  return 0;
}
