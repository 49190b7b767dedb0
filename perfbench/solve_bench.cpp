// Certified-solve benchmark (see README.md).
//
//   solve_bench --workload <mis-er|coloring-rmat|boruvka-er> --seed <n>
//               --seconds <s> --trace <0|1> [--toy] [--corrupt]
//               [--trace-out <path>]
//
// Generates the workload's input from the seed, then repeats warm solves
// through the program's public entry points (CsrGraph::from_edges or the
// Borůvka ContractionGraph, the app state plus make_*_operator,
// SpeculativeExecutor, AdaptiveRun under make_controller("hybrid"),
// verify::certify_*) on a one-worker pool, the executor's deterministic
// single-lane path. (Multi-lane solves are left out: README.md says why.)
// Each solve is followed on the same thread by the benchmark's own serial
// yardstick, and every answer is checked by the benchmark's own checks.
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, measured
// from outside the program. --toy shrinks every input (for the tests), and
// --corrupt damages each answer before it is certified (a failed solve).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/boruvka/boruvka.hpp"
#include "apps/coloring/coloring.hpp"
#include "apps/mis/mis.hpp"
#include "control/factory.hpp"
#include "graph/csr_graph.hpp"
#include "inputs.hpp"
#include "probe.hpp"
#include "rt/adaptive_executor.hpp"
#include "rt/spec_executor.hpp"
#include "support/thread_pool.hpp"
#include "verify/app_certs.hpp"
#include "yardstick.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

namespace op = optipar;
using namespace perfbench;

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kTimeable = true;
#else
constexpr bool kTimeable = false;
#endif

// Every run makes at least this many timed solves per lane configuration,
// however short --seconds is.
constexpr int kMinIterations = 3;
// The yardstick brackets every solve: one sample of serial solves lasting
// about this long runs right before it and one right after, and the solve
// is divided by their mean, so a change of host speed during the pair
// cancels.
constexpr double kYardstickSampleS = 0.1;

enum class Kind { kMis, kColoring, kBoruvka };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  std::uint32_t nodes;
  std::uint32_t toy_nodes;
};

// Average degree 8 (M = 4n) everywhere. Why each workload is here:
// README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"mis-er", Kind::kMis, 1'000'000, 2'000},
    {"coloring-rmat", Kind::kColoring, 200'000, 2'000},
    {"boruvka-er", Kind::kBoruvka, 20'000, 500},
};

/// Per-run constant data: the generated input in the program's types and
/// the benchmark's own adjacency and reference answer.
struct Shared {
  Kind kind;
  Input input;
  std::vector<op::boruvka::WeightedEdge> weighted;  // boruvka-er only
  Adjacency adj;
  Forest forest;  // boruvka-er only: Kruskal's answer

  Shared(Kind k, Input in) : kind(k), input(std::move(in)), adj(input) {}
};

Input make_input(const WorkloadSpec& spec, bool toy, std::uint64_t seed) {
  const std::uint32_t n = toy ? spec.toy_nodes : spec.nodes;
  const std::uint64_t m = 4ull * n;
  switch (spec.kind) {
    case Kind::kMis:
      return gnm(n, m, seed);
    case Kind::kColoring:
      return rmat(n, m, 0.55, 0.15, 0.15, seed);
    case Kind::kBoruvka: {
      Input in = gnm(n, m, seed);
      add_weights(in, 100.0, seed ^ 0x5eedf00dull);
      return in;
    }
  }
  return {};
}

// --- tracing hooks ----------------------------------------------------------

/// What a traced setup or solve records into; nullptr when untraced.
struct Tracer {
  SpanLog spans;
  OperatorProbe probe;
};

op::TaskOperator maybe_wrap(Tracer* t, op::TaskOperator fn) {
  return t != nullptr ? t->probe.wrap(std::move(fn)) : std::move(fn);
}

template <typename F>
auto in_span(Tracer* t, const char* name, F&& f) {
  const std::uint64_t t0 = now_ns();
  auto result = f();
  if (t != nullptr) t->spans.add(name, t0, now_ns());
  return result;
}

void push_all(op::SpeculativeExecutor& exec, std::uint32_t n, Tracer* t) {
  const std::uint64_t t0 = now_ns();
  std::vector<op::TaskId> tasks(n);
  std::iota(tasks.begin(), tasks.end(), op::TaskId{0});
  exec.push_initial(tasks);
  if (t != nullptr) t->spans.add("sched.push", t0, now_ns());
}

// --- the three apps: constructing one is the timed set-up -------------------

struct MisApp {
  const Shared& shared;
  op::CsrGraph graph;
  op::mis::MisState state;
  op::SpeculativeExecutor exec;

  MisApp(const Shared& s, op::ThreadPool& pool, std::uint64_t seed, Tracer* t)
      : shared(s),
        graph(in_span(t, "graph.build",
                      [&] {
                        return op::CsrGraph::from_edges(s.input.n,
                                                        s.input.edges);
                      })),
        state(graph.num_nodes()),
        exec(pool, graph.num_nodes(),
             maybe_wrap(t, op::mis::make_mis_operator(graph, state)), seed) {
    push_all(exec, graph.num_nodes(), t);
  }
  [[nodiscard]] op::verify::Certificate certify() const {
    return op::verify::certify_mis(graph, state);
  }
  [[nodiscard]] std::string check() const {
    return check_mis(shared.adj, [this](std::uint32_t v) {
      const auto st = state.get(v);
      return st == op::mis::NodeState::kIn    ? 1
             : st == op::mis::NodeState::kOut ? 0
                                              : 2;
    });
  }
  void corrupt() {  // flip one node out of the set
    for (std::uint32_t v = 0; v < state.size(); ++v) {
      if (state.get(v) == op::mis::NodeState::kIn) {
        state.set(v, op::mis::NodeState::kOut);
        return;
      }
    }
  }
  [[nodiscard]] double input_bytes() const {
    return 8.0 * (graph.num_nodes() + 1.0) + 8.0 * graph.num_edges();
  }
};

struct ColoringApp {
  const Shared& shared;
  op::CsrGraph graph;
  op::coloring::ColoringState state;
  op::SpeculativeExecutor exec;

  ColoringApp(const Shared& s, op::ThreadPool& pool, std::uint64_t seed,
              Tracer* t)
      : shared(s),
        graph(in_span(t, "graph.build",
                      [&] {
                        return op::CsrGraph::from_edges(s.input.n,
                                                        s.input.edges);
                      })),
        state(graph.num_nodes()),
        exec(pool, graph.num_nodes(),
             maybe_wrap(t, op::coloring::make_coloring_operator(graph, state)),
             seed) {
    push_all(exec, graph.num_nodes(), t);
  }
  [[nodiscard]] op::verify::Certificate certify() const {
    return op::verify::certify_coloring(graph, state);
  }
  [[nodiscard]] std::string check() const {
    return check_coloring(shared.adj,
                          [this](std::uint32_t v) { return state.color(v); });
  }
  void corrupt() {  // give one node its first neighbour's colour
    for (std::uint32_t v = 0; v < state.size(); ++v) {
      const auto nbrs = graph.neighbors(v);
      if (!nbrs.empty()) {
        state.set_color(v, state.color(nbrs.front()));
        return;
      }
    }
  }
  [[nodiscard]] double input_bytes() const {
    return 8.0 * (graph.num_nodes() + 1.0) + 8.0 * graph.num_edges();
  }
};

struct BoruvkaApp {
  const Shared& shared;
  op::boruvka::ContractionGraph graph;
  op::SpeculativeExecutor exec;

  BoruvkaApp(const Shared& s, op::ThreadPool& pool, std::uint64_t seed,
             Tracer* t)
      : shared(s),
        graph(in_span(t, "graph.build",
                      [&] {
                        return op::boruvka::ContractionGraph(s.input.n,
                                                             s.weighted);
                      })),
        exec(pool, graph.num_nodes(),
             maybe_wrap(t, op::boruvka::make_boruvka_operator(graph)), seed) {
    push_all(exec, graph.num_nodes(), t);
  }
  [[nodiscard]] op::verify::Certificate certify() const {
    return op::verify::certify_boruvka(shared.input.n, shared.weighted,
                                       graph.chosen_weight(),
                                       graph.chosen_count());
  }
  [[nodiscard]] std::string check() const {
    return check_forest(shared.forest, graph.chosen_weight(),
                        graph.chosen_count());
  }
  void corrupt() {  // drop one forest edge
    for (std::uint32_t v = 0; v < graph.num_nodes(); ++v) {
      if (graph.has_choice(v)) {
        graph.record_choice(v, 0.0, false);
        return;
      }
    }
  }
  /// Computed from container sizes: hash buckets, map nodes (a next
  /// pointer plus the entry, rounded to malloc's 16 bytes), per-node
  /// arrays.
  [[nodiscard]] double input_bytes() const {
    using Map = std::unordered_map<op::NodeId, double>;
    constexpr double kNode =
        (sizeof(void*) + sizeof(Map::value_type) + 15) / 16 * 16;
    double bytes = graph.num_nodes() * (sizeof(Map) + 1.0 + 8.0 + 1.0);
    for (std::uint32_t v = 0; v < graph.num_nodes(); ++v) {
      const Map& adj = graph.adjacency(v);
      bytes += 8.0 * adj.bucket_count() + kNode * adj.size();
    }
    return bytes;
  }
};

// --- serial yardstick --------------------------------------------------------

class Yardstick {
 public:
  explicit Yardstick(const Shared& s) : s_(s) {}

  /// One serial solve; returns a digest of the answer.
  std::uint64_t run_once() {
    switch (s_.kind) {
      case Kind::kMis:
        return serial_mis(s_.adj, in_);
      case Kind::kColoring:
        return serial_coloring(s_.adj, color_, seen_);
      case Kind::kBoruvka: {
        const Forest f = serial_kruskal(s_.input, order_, parent_, size_);
        return f.edges + static_cast<std::uint64_t>(f.weight);
      }
    }
    return 0;
  }

  /// Choose the repetitions per sample from a warm solve.
  void calibrate() {
    run_once();
    const std::uint64_t t0 = now_ns();
    sink_ += run_once();
    const double once = std::max(1e-9, (now_ns() - t0) * 1e-9);
    reps_ = static_cast<std::uint32_t>(
        std::clamp(std::ceil(kYardstickSampleS / once), 1.0, 10000.0));
  }

  /// Seconds per serial solve, averaged over one sample of reps() solves.
  double sample(Tracer* t) {
    const std::uint64_t t0 = now_ns();
    for (std::uint32_t i = 0; i < reps_; ++i) sink_ += run_once();
    const std::uint64_t t1 = now_ns();
    if (t != nullptr) t->spans.add("baseline.serial", t0, t1);
    return (t1 - t0) * 1e-9 / reps_;
  }

  [[nodiscard]] std::uint32_t reps() const { return reps_; }
  [[nodiscard]] std::uint64_t sink() const { return sink_; }

 private:
  const Shared& s_;
  std::vector<std::uint8_t> in_;
  std::vector<std::uint32_t> color_, seen_, order_, parent_, size_;
  std::uint32_t reps_ = 1;
  std::uint64_t sink_ = 0;
};

// --- one solve -------------------------------------------------------------

struct SolveStats {
  double setup_s = 0.0;
  double solve_s = 0.0;  // ready executor -> certified answer
  std::string failure;   // empty when every check passed
  std::uint64_t rounds = 0;
  std::uint64_t launched = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  double mean_m = 0.0;
  // Traced solves only.
  std::vector<std::uint64_t> round_ns;
  double round_s = 0.0;
  double observe_s = 0.0;
  double certify_s = 0.0;
  double op_commit_s = 0.0;
  double op_abort_s = 0.0;
  std::uint32_t threads = 0;
};

double sum_s(const std::vector<std::uint64_t>& ns) {
  return std::accumulate(ns.begin(), ns.end(), std::uint64_t{0}) * 1e-9;
}

template <typename App>
void solve(App& app, Tracer* t, bool corrupt, SolveStats& st) {
  // The processor budget is the task count, as in the program's own app
  // harness (verify/harness.cpp).
  op::ControllerParams params;
  params.m_max = std::max<std::uint32_t>(2, app.exec.pending());
  const std::unique_ptr<op::Controller> hybrid =
      op::make_controller("hybrid", params);
  std::optional<TimedController> timed;
  if (t != nullptr) timed.emplace(*hybrid, t->spans);
  op::Controller& controller =
      timed ? static_cast<op::Controller&>(*timed) : *hybrid;
  op::AdaptiveRunConfig config;
  config.certifier = [&app] { return app.certify(); };
  std::size_t first_span = 0;
  if (t != nullptr) {
    t->probe.reset();
    first_span = t->spans.size();
  }

  const std::uint64_t t0 = now_ns();
  op::AdaptiveRun run(app.exec, controller, std::move(config));
  while (!run.finished()) {
    const std::uint64_t s = now_ns();
    run.step();
    if (t != nullptr) t->spans.add("rt.step", s, now_ns());
  }
  if (corrupt) app.corrupt();
  const std::uint64_t c0 = now_ns();
  run.ensure_certified();
  const std::uint64_t end = now_ns();
  st.solve_s = (end - t0) * 1e-9;

  const op::ExecutorTotals& totals = app.exec.totals();
  st.rounds = run.trace().steps.size();
  st.launched = totals.launched;
  st.committed = totals.committed;
  st.aborted = totals.aborted;
  double m_sum = 0.0;
  for (const auto& step : run.trace().steps) m_sum += step.m;
  st.mean_m = st.rounds > 0 ? m_sum / static_cast<double>(st.rounds) : 0.0;

  auto fail = [&st](const std::string& why) {
    st.failure += (st.failure.empty() ? "" : "; ") + why;
  };
  if (!app.exec.done()) {
    fail("max-rounds stop with " + std::to_string(app.exec.pending()) +
         " tasks pending");
  } else if (!run.certificate()->ok()) {
    fail("certificate refuted (" + run.certificate()->describe() + ")");
  }
  if (const std::string why = app.check(); !why.empty()) fail("check: " + why);

  if (t == nullptr) return;
  t->spans.add("verify.certify", c0, end);
  t->spans.add("solve", t0, end);
  st.round_ns = t->spans.durations("rt.step", first_span);
  st.round_s = sum_s(st.round_ns);
  st.observe_s = sum_s(t->spans.durations("control.observe", first_span));
  st.certify_s = (end - c0) * 1e-9;
  // Operator time from the sampled calls: the mean sampled duration of
  // each outcome times the exact number of calls with that outcome.
  const OperatorProbe::Totals probe = t->probe.totals();
  if (probe.calls != st.launched) {
    fail("probe saw " + std::to_string(probe.calls) + " operator calls for " +
         std::to_string(st.launched) + " launches");
  }
  const double any_mean =
      probe.commit_samples + probe.abort_samples == 0
          ? 0.0
          : 1e-9 * static_cast<double>(probe.commit_ns + probe.abort_ns) /
                static_cast<double>(probe.commit_samples + probe.abort_samples);
  auto mean = [any_mean](std::uint64_t ns, std::uint64_t n) {
    return n == 0 ? any_mean : 1e-9 * static_cast<double>(ns) / n;
  };
  st.op_commit_s = static_cast<double>(st.committed) *
                   mean(probe.commit_ns, probe.commit_samples);
  st.op_abort_s = static_cast<double>(st.aborted) *
                  mean(probe.abort_ns, probe.abort_samples);
  st.threads = probe.threads;
}

// --- statistics and output -------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

template <typename F>
double median_of(const std::vector<SolveStats>& solves, F field) {
  std::vector<double> v;
  for (const SolveStats& s : solves) v.push_back(field(s));
  return median(v);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  bool corrupt = false;
  std::string trace_out;
};

/// Per-layer metrics of the traced one-lane solves. `untraced_s` holds the
/// untraced solves run beside them, for the tracing overhead.
std::vector<Metric> layer_metrics(const std::vector<SolveStats>& tr,
                                  const std::vector<double>& untraced_s) {
  std::vector<std::uint64_t> rounds;
  for (const SolveStats& s : tr) {
    rounds.insert(rounds.end(), s.round_ns.begin(), s.round_ns.end());
  }
  std::sort(rounds.begin(), rounds.end());
  // The tail is the highest percentile with ten rounds beyond it.
  const std::size_t n = rounds.size();
  const std::size_t tail_rank = n > 10 ? n - 11 : (n == 0 ? 0 : n - 1);
  const double tail_pct = n > 10 ? 100.0 * static_cast<double>(n - 10) / n
                                 : 100.0;
  auto med = [&tr](auto field) { return median_of(tr, field); };
  auto secs = [&med](double SolveStats::*field) {
    return med([field](const SolveStats& s) { return s.*field; });
  };
  auto count = [&med](std::uint64_t SolveStats::*field) {
    return med([field](const SolveStats& s) { return double(s.*field); });
  };
  const double solve = secs(&SolveStats::solve_s);
  const double untraced = median(untraced_s);
  const double observe = secs(&SolveStats::observe_s);
  const double certify = secs(&SolveStats::certify_s);
  const double op_commit = secs(&SolveStats::op_commit_s);
  const double op_abort = secs(&SolveStats::op_abort_s);
  // Self times: each layer's span minus the spans and operator time inside
  // it. Per solve they add up to the traced solve by construction; their
  // medians are reported against the traced solve's median.
  const double rt_self = med([](const SolveStats& s) {
    return s.round_s - s.op_commit_s - s.op_abort_s - s.observe_s;
  });
  const double loop_self = med([](const SolveStats& s) {
    return s.solve_s - s.round_s - s.certify_s;
  });
  return {
      {"solve_1lane_s", untraced, "s"},
      {"rt.rounds_1lane", count(&SolveStats::rounds), "count"},
      {"rt.launched_1lane", count(&SolveStats::launched), "count"},
      {"rt.aborted_1lane", count(&SolveStats::aborted), "count"},
      {"rt.commit_ratio_1lane",
       med([](const SolveStats& s) {
         return s.launched == 0 ? 0.0 : double(s.committed) / s.launched;
       }),
       "ratio"},
      {"rt.round_s_1lane", secs(&SolveStats::round_s), "s"},
      {"rt.round_p50_us_1lane", n == 0 ? 0.0 : rounds[n / 2] * 1e-3, "us"},
      {"rt.round_tail_us_1lane", n == 0 ? 0.0 : rounds[tail_rank] * 1e-3,
       "us"},
      {"rt.round_tail_pct_1lane", tail_pct, "%"},
      {"rt.round_samples_1lane", double(n), "count"},
      {"rt.self_s_1lane", rt_self, "s"},
      {"rt.lane_busy_frac_1lane",
       med([](const SolveStats& s) {
         const double lane_s = std::max(1u, s.threads) * s.round_s;
         return lane_s > 0.0 ? (s.op_commit_s + s.op_abort_s) / lane_s : 0.0;
       }),
       "ratio"},
      {"control.observe_s_1lane", observe, "s"},
      {"control.mean_m_1lane", secs(&SolveStats::mean_m), "count"},
      {"apps.op_commit_s_1lane", op_commit, "s"},
      {"apps.op_abort_s_1lane", op_abort, "s"},
      {"verify.certify_s_1lane", certify, "s"},
      {"solve.self_s_1lane", loop_self, "s"},
      {"trace.solve_s_1lane", solve, "s"},
      {"trace.self_sum_s_1lane",
       rt_self + loop_self + op_commit + op_abort + observe + certify, "s"},
      {"trace.overhead_1lane", untraced > 0.0 ? solve / untraced - 1.0 : 0.0,
       "ratio"},
  };
}

template <typename App>
int run(const Options& opt, const WorkloadSpec& spec, Shared& shared) {
  // A one-worker pool takes the executor's deterministic single-lane path.
  op::ThreadPool pool(1);
  Tracer tracer;
  Tracer* const traced = opt.trace ? &tracer : nullptr;
  const std::uint64_t exec_seed = SplitMix64(opt.seed ^ 0xe8ec0de5ull).next();

  Yardstick yard(shared);
  yard.calibrate();
  std::vector<double> setup_s, solve_s, cost_x, serial_s, untraced_s;
  std::vector<SolveStats> traced_solves;
  std::uint64_t attempted = 0, failed = 0;
  std::uint32_t solve_id = 0;

  auto one = [&](Tracer* t) -> std::optional<SolveStats> {
    ++attempted;
    SolveStats st;
    if (t != nullptr) t->spans.set_solve(++solve_id);
    try {
      const std::uint64_t t0 = now_ns();
      std::unique_ptr<App> app =
          std::make_unique<App>(shared, pool, exec_seed, t);
      st.setup_s = (now_ns() - t0) * 1e-9;
      solve(*app, t, opt.corrupt, st);
    } catch (const std::exception& e) {
      st.failure = std::string("exception: ") + e.what();
    }
    if (st.failure.empty()) return st;
    ++failed;
    std::fprintf(stderr, "solve %llu failed: %s\n",
                 static_cast<unsigned long long>(attempted),
                 st.failure.c_str());
    return std::nullopt;
  };

  one(nullptr);  // warm-up, not timed

  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (int i = 0; i < kMinIterations || now_ns() < deadline; ++i) {
    std::optional<SolveStats> partner;
    if (traced != nullptr) partner = one(nullptr);
    const double before = yard.sample(traced);
    const std::optional<SolveStats> st = one(traced);
    const double y = 0.5 * (before + yard.sample(traced));
    serial_s.push_back(y);
    if (!st) continue;
    setup_s.push_back(st->setup_s);
    solve_s.push_back(st->solve_s);
    cost_x.push_back(st->solve_s / y);
    if (traced != nullptr) {
      traced_solves.push_back(*st);
      if (partner) untraced_s.push_back(partner->solve_s);
    }
  }

  std::vector<Metric> metrics;
  std::uint32_t lanes_used = 0;
  if (!opt.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"cost_1lane_x", median(cost_x), "x"},
        {"peak_rss_mb", usage.ru_maxrss * 1024.0 / 1e6, "MB"},
    };
  } else {
    auto span_median = [&tracer](const char* name) {
      std::vector<double> v;
      for (const auto ns : tracer.spans.durations(name, 0)) {
        v.push_back(ns * 1e-9);
      }
      return median(v);
    };
    const App sized(shared, pool, exec_seed, nullptr);
    metrics = {
        {"graph.build_s", span_median("graph.build"), "s"},
        {"graph.input_mb", sized.input_bytes() / 1e6, "MB"},
        {"sched.push_s", span_median("sched.push"), "s"},
        {"baseline.serial_s", median(serial_s), "s"},
    };
    const std::vector<Metric> layers = layer_metrics(traced_solves, untraced_s);
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    lanes_used = static_cast<std::uint32_t>(median_of(
        traced_solves, [](const SolveStats& s) { return double(s.threads); }));
  }

  // Run context: everything needed to interpret the numbers.
  std::printf(
      "context {\"workload\":\"%s\",\"seed\":%llu,\"fingerprint\":\"%016llx\","
      "\"nodes\":%u,\"edges\":%zu,\"nproc\":%u,\"pool_workers\":%zu,"
      "\"lanes_used\":%u,\"build_type\":\"%s\",\"ndebug\":%s,\"trace\":%d,"
      "\"samples\":{\"setup\":%zu,\"solve\":%zu,\"traced\":%zu,"
      "\"serial\":%zu},\"serial_reps\":%u,\"serial_digest\":%llu}\n",
      spec.name, static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(fingerprint(shared.input)),
      shared.input.n, shared.input.edges.size(),
      std::max(1u, std::thread::hardware_concurrency()), pool.size(),
      lanes_used, PERFBENCH_BUILD_TYPE, kTimeable ? "true" : "false",
      opt.trace ? 1 : 0, setup_s.size(), solve_s.size(),
      traced_solves.size(), serial_s.size(), yard.reps(),
      static_cast<unsigned long long>(yard.sink()));
  // Every sample behind the timed medians, in the order taken.
  auto print_samples = [](const char* name, const std::vector<double>& v) {
    std::printf("samples %s", name);
    for (const double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  };
  print_samples("setup_s", setup_s);
  print_samples("solve_1lane_s", solve_s);
  print_samples("cost_1lane_x", cost_x);
  print_samples("serial_s", serial_s);
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (opt.trace && !opt.trace_out.empty()) {
    tracer.spans.write_chrome(opt.trace_out);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "solve_bench: %s\nusage: solve_bench --workload "
               "<mis-er|coloring-rmat|boruvka-er> --seed <n> --seconds <s> "
               "--trace <0|1> [--toy] [--corrupt] [--trace-out <path>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value()) != 0;
      } else if (arg == "--trace-out") {
        opt.trace_out = value();
      } else if (arg == "--toy") {
        opt.toy = true;
      } else if (arg == "--corrupt") {
        opt.corrupt = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  // Serve every allocation from a heap that is never trimmed. Under
  // glibc's default adaptive thresholds, whether a set-up reuses freed
  // memory or faults in fresh pages (and so its time and the peak RSS)
  // depends on the allocation history; this way every timed set-up is
  // warm, like every timed solve.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  const Options opt = parse(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opt.workload == w.name) spec = &w;
  }
  if (spec == nullptr) usage("unknown --workload");
  if (!kTimeable) {
    std::fprintf(stderr,
                 "solve_bench: refusing to time a %s build without "
                 "optimisation and NDEBUG\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  Shared shared(spec->kind, make_input(*spec, opt.toy, opt.seed));
  switch (spec->kind) {
    case Kind::kMis:
      return run<MisApp>(opt, *spec, shared);
    case Kind::kColoring:
      return run<ColoringApp>(opt, *spec, shared);
    case Kind::kBoruvka: {
      const Input& in = shared.input;
      shared.weighted.reserve(in.edges.size());
      for (std::size_t e = 0; e < in.edges.size(); ++e) {
        shared.weighted.push_back(
            {in.edges[e].first, in.edges[e].second, in.weights[e]});
      }
      std::vector<std::uint32_t> order, parent, size;
      shared.forest = serial_kruskal(in, order, parent, size);
      return run<BoruvkaApp>(opt, *spec, shared);
    }
  }
  return 2;
}
