// optipar command-line tool — the library's functionality without writing
// C++: generate CC graphs, estimate conflict-ratio curves, locate operating
// points, evaluate the paper's bounds, and run controllers.
//
//   optipar_cli gen     --family=gnm --n=2000 --d=16 --seed=1 --out=g.txt
//   optipar_cli curve   --graph=g.txt --trials=300 [--csv=curve.csv]
//                       [--epsilon=0.005 --max-trials=100000
//                        --relabel=none|bfs|degree] (adaptive engine:
//                       run until every r̄(m) CI half-width <= epsilon)
//   optipar_cli mu      --graph=g.txt --rho=0.25 [--epsilon= --max-trials=
//                       --relabel=]
//   optipar_cli theory  --n=2000 --d=16 [--m=100]
//   optipar_cli control --graph=g.txt --controller=hybrid --rho=0.25
//                       --steps=120 [--csv=trace.csv]
//   optipar_cli seating --n=1000   (unfriendly seating reference numbers)
//   optipar_cli chaos   --tasks=400 --threads=4 --fault-seed=42
//                       --fault-rate=0.2 --max-retries=3
//                       (fault-injected speculative run; DESIGN.md §8)
//   optipar_cli run     --graph=g.txt --threads=4 --controller=hybrid
//                       --rho=0.25 [--steps=N --metrics-out=m.prom
//                       --trace-out=t.jsonl --csv=trace.csv]
//                       [--scheduler=random|chromatic] (which backend
//                       owns the round's draw stage: the paper's random
//                       draw or zero-abort chromatic color classes)
//                       [--checkpoint-dir=DIR --checkpoint-every=N
//                       --resume] (adaptive closed loop on the REAL
//                       speculative runtime: one task per node, each
//                       acquiring its closed neighborhood; with a
//                       checkpoint dir the run journals every round and
//                       snapshots every N rounds — --resume picks up a
//                       killed run from the newest valid snapshot.
//                       --crash-point=NAME --crash-round=N inject a
//                       deliberate _Exit at a chosen durability step for
//                       the crash-recovery harness; see DESIGN.md §11)
//   optipar_cli run     --app=mis|coloring|sssp|boruvka|maxflow|sp|dmr
//                       [--n=300 --d=8 --seed=1 --threads=4
//                       --controller=hybrid --scheduler=...] (one real
//                       application kernel end to end, result certified by
//                       an independent checker — src/verify/; refuted
//                       certificate => exit 8. `run` and `chaos` also take
//                       --verify to certify the default workloads.)
//   optipar_cli metrics [--format=prometheus|json] (run a small
//                       deterministic workload with telemetry attached and
//                       print the metrics export — the scrape surface demo)
//   optipar_cli profile --graph=g.txt --threads=4 [--top=16
//                       --out=profile.json] (run the closed loop with the
//                       conflict-attribution profiler attached: per-item
//                       conflict counters, top-K hotspot table,
//                       degree-bucketed rollup; DESIGN.md §15)
//
// `run`, `curve`, `mu`, and `chaos` all accept --metrics-out=FILE (metrics
// rendered as Prometheus text, or JSON when FILE ends in .json) and
// --trace-out=FILE (JSONL: `{"type":"round",...}` per-round records
// interleaved with `{"type":"event",...}` sub-round telemetry events).
// `run` and `chaos` additionally accept --trace-chrome=FILE: a Chrome
// trace-event JSON span timeline (job → round → phase → lane chunk),
// viewable in Perfetto / chrome://tracing and validated by
// scripts/check_trace.py.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/app_spec.hpp"
#include "apps/job.hpp"
#include "control/extra.hpp"
#include "control/factory.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "graph/relabel.hpp"
#include "model/adaptive_estimator.hpp"
#include "model/conflict_ratio.hpp"
#include "model/seating.hpp"
#include "model/theory.hpp"
#include "rt/checkpoint.hpp"
#include "rt/fault_injector.hpp"
#include "sim/run_loop.hpp"
#include "sim/trace.hpp"
#include "support/csv.hpp"
#include "support/failure_policy.hpp"
#include "support/options.hpp"
#include "support/snapshot/snapshot.hpp"
#include "support/telemetry/conflict_profiler.hpp"
#include "support/telemetry/metrics_registry.hpp"
#include "support/telemetry/span_trace.hpp"
#include "support/telemetry/telemetry.hpp"
#include "support/thread_pool.hpp"
#include "verify/certifier.hpp"
#include "verify/executor_cert.hpp"
#include "verify/harness.hpp"

namespace {

using namespace optipar;

// Process exit codes, shared with optipar_serve and documented in
// README.md ("Exit codes"): scripts can distinguish WHY a run failed
// without parsing stderr.
enum ExitCode : int {
  kExitOk = 0,
  kExitError = 1,     ///< generic runtime failure / chaos verdict fail
  kExitUsage = 2,     ///< bad subcommand or option value
  kExitGraphIo = 3,   ///< GraphIoError: unreadable/hostile graph input
  kExitSnapshot = 4,  ///< SnapshotError: unusable checkpoint/snapshot state
  kExitLivelock = 5,  ///< LivelockError: no allocation can commit the work
  kExitDeadline = 6,  ///< --timeout-ms expired (JobInterrupted)
  // 7 (overloaded) belongs to the optipar_serve client's admission
  // rejection; skipped here so the two taxonomies never collide.
  kExitCertification = 8,  ///< --verify: the result certificate was refuted
};

int usage() {
  std::cerr <<
      "usage: optipar_cli"
      " <gen|curve|mu|theory|control|seating|chaos|run|metrics|profile>"
      " [--options]\n"
      "run with a subcommand and no options to see its parameters\n"
      "run/chaos accept --scheduler=random|chromatic\n"
      "run/chaos accept --verify (certify the result; refuted => exit 8);\n"
      "run accepts --app=mis|coloring|sssp|boruvka|maxflow|sp|dmr for a\n"
      "certified end-to-end kernel run\n"
      "exit codes: 0 ok, 1 error, 2 usage, 3 graph-io, 4 snapshot,"
      " 5 livelock, 6 deadline, 8 certification\n";
  return kExitUsage;
}

/// Parse --scheduler for run/chaos. Unknown names report the offending
/// value and exit 2 through the documented usage text, like unknown
/// subcommands do.
std::optional<sched::Backend> parse_scheduler(const Options& opt) {
  const std::string name = opt.get("scheduler", "random");
  const auto backend = sched::parse_backend(name);
  if (!backend) {
    std::cerr << "unknown --scheduler=" << name
              << " (expected random|chromatic)\n";
  }
  return backend;
}

/// The job `run` and `profile` build from their shared flags: --seed,
/// --controller (the factory the serve daemon shares), --rho, --m0,
/// --m-max, --scheduler, --steps and --timeout-ms. Nullopt after an
/// unknown name has been reported: exit 2.
std::optional<JobConfig> closed_loop_config(const Options& opt) {
  JobConfig config;
  config.controller = opt.get("controller", "hybrid");
  if (make_controller(config.controller, ControllerParams{}) == nullptr) {
    std::cerr << "unknown --controller=" << config.controller << "\n";
    return std::nullopt;
  }
  const auto backend = parse_scheduler(opt);
  if (!backend) {
    usage();
    return std::nullopt;
  }
  config.seed = run_executor_seed(
      static_cast<std::uint64_t>(opt.get_int("seed", 1)));
  config.scheduler = *backend;
  config.params.rho = opt.get_double("rho", 0.25);
  config.params.m0 =
      static_cast<std::uint32_t>(opt.get_int("m0", config.params.m0));
  config.params.m_max =
      static_cast<std::uint32_t>(opt.get_int("m-max", config.params.m_max));
  config.max_rounds =
      static_cast<std::uint32_t>(opt.get_int("steps", 100000));
  config.timeout_ms = opt.get_int("timeout-ms", 0);
  return config;
}

// --- telemetry plumbing shared by run/curve/mu/chaos -----------------------

bool telemetry_requested(const Options& opt) {
  return opt.has("metrics-out") || opt.has("trace-out") ||
         opt.has("trace-chrome");
}

/// Write `reg` to `path`: JSON when the extension is .json, Prometheus
/// text exposition otherwise.
void write_metrics_file(const std::string& path, const MetricsRegistry& reg) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open --metrics-out=" + path);
  if (path.size() >= 5 && path.rfind(".json") == path.size() - 5) {
    reg.render_json(os);
  } else {
    reg.render_prometheus(os);
  }
}

/// Write the structured trace: per-round StepRecord lines (plus the
/// summary), then the drained sub-round telemetry events.
void write_trace_file(const std::string& path, const Trace* trace,
                      telemetry::RuntimeTelemetry* tel) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open --trace-out=" + path);
  if (trace != nullptr) write_trace_jsonl(os, *trace);
  if (tel != nullptr) {
    const auto events = tel->drain_events();
    telemetry::write_events_jsonl(os, events);
  }
}

/// Report a livelocked or interrupted job's reason on stderr.
void report_stop(const AppJob& job) {
  if (!job.error().empty()) std::cerr << job.error() << "\n";
}

/// Write a finished job's --metrics-out (its metrics document), --trace-out
/// (its rounds, then its telemetry events) and --trace-chrome (`spans` as
/// a Chrome trace-event JSON document).
void write_job_files(const Options& opt, AppJob& job,
                     const telemetry::SpanCollector& spans) {
  if (opt.has("metrics-out")) {
    MetricsRegistry reg;
    job.export_metrics(reg);
    write_metrics_file(opt.get("metrics-out", ""), reg);
  }
  if (opt.has("trace-out")) {
    const std::string path = opt.get("trace-out", "");
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot open --trace-out=" + path);
    job.write_trace_jsonl(os);
  }
  if (opt.has("trace-chrome")) {
    const std::string path = opt.get("trace-chrome", "");
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot open --trace-chrome=" + path);
    spans.export_chrome(os);
  }
}

/// Route injector firings into the telemetry event stream. The hook runs on
/// pool lanes and must not throw; emit() failures are swallowed.
void hook_injector(FaultInjector& injector, telemetry::RuntimeTelemetry& tel,
                   const SpeculativeExecutor& ex) {
  injector.set_fire_hook(
      [&tel, &ex](FaultSite site, std::uint64_t a, std::uint64_t b) {
        try {
          tel.emit({telemetry::EventKind::kFaultFired, 0, ex.round_index(),
                    a, b, 0.0, 0.0, fault_site_name(site)});
        } catch (...) {
        }
      });
}

CsrGraph make_graph(const Options& opt, Rng& rng) {
  const std::string family = opt.get("family", "gnm");
  const auto n = static_cast<NodeId>(opt.get_int("n", 2000));
  const double d = opt.get_double("d", 16.0);
  if (family == "gnm") return gen::random_with_average_degree(n, d, rng);
  if (family == "gnp") {
    return gen::gnp_random(n, d / static_cast<double>(n - 1), rng);
  }
  if (family == "cliques") {
    return gen::union_of_cliques(n - n % (static_cast<NodeId>(d) + 1),
                                 static_cast<std::uint32_t>(d));
  }
  if (family == "regular") {
    return gen::random_regular(n, static_cast<std::uint32_t>(d), rng);
  }
  if (family == "grid") {
    const auto side = static_cast<NodeId>(std::sqrt(double(n)));
    return gen::grid_2d(side, side);
  }
  if (family == "rmat") {
    return gen::rmat(n, static_cast<std::uint64_t>(n * d / 2), 0.55, 0.15,
                     0.15, rng);
  }
  if (family == "ba") {
    return gen::barabasi_albert(n, static_cast<std::uint32_t>(d / 2), rng);
  }
  throw std::invalid_argument("unknown --family=" + family);
}

CsrGraph load_graph(const Options& opt, Rng& rng) {
  if (opt.has("graph")) return io::read_edge_list(opt.get("graph", ""));
  return make_graph(opt, rng);  // allow generating on the fly
}

/// Stream for the measurement phase, decorrelated from graph generation.
/// Without this, measuring a file generated with the same --seed would
/// REPLAY the generator's node-pair stream — e.g. every sampled pair of
/// tasks would be a conflict edge.
Rng measurement_rng(Rng& base) { return base.split(); }

/// Adaptive-engine knobs shared by `curve` and `mu`. Only consulted when
/// --epsilon is present; without it both subcommands keep the historical
/// fixed-trial draw stream byte-for-byte.
AdaptiveConfig adaptive_config(const Options& opt) {
  AdaptiveConfig cfg;
  cfg.epsilon = opt.get_double("epsilon", cfg.epsilon);
  cfg.max_sweeps = static_cast<std::uint32_t>(
      opt.get_int("max-trials", cfg.max_sweeps));
  cfg.min_samples = static_cast<std::uint32_t>(
      opt.get_int("min-samples", cfg.min_samples));
  cfg.batch_samples = static_cast<std::uint32_t>(
      opt.get_int("batch", cfg.batch_samples));
  cfg.antithetic = opt.get_bool("antithetic", cfg.antithetic);
  cfg.control_variates =
      opt.get_bool("control-variates", cfg.control_variates);
  cfg.relabel = parse_relabel_order(opt.get("relabel", "none"));
  return cfg;
}

int cmd_gen(const Options& opt) {
  Rng rng(opt.get_int("seed", 1));
  const auto g = make_graph(opt, rng);
  const std::string out = opt.get("out", "graph.txt");
  io::write_edge_list(g, out);
  std::cout << "wrote " << out << ": n=" << g.num_nodes() << " m="
            << g.num_edges() << " avg_degree=" << g.average_degree() << "\n";
  return 0;
}

int cmd_curve(const Options& opt) {
  Rng rng(opt.get_int("seed", 1));
  auto g = load_graph(opt, rng);
  ConflictCurve curve;
  telemetry::RuntimeTelemetry tel;
  MetricsRegistry reg;
  if (opt.has("epsilon")) {
    AdaptiveConfig cfg = adaptive_config(opt);
    if (telemetry_requested(opt)) cfg.timers = &tel.timers();
    auto adaptive = estimate_conflict_curve_adaptive(
        g, cfg, static_cast<std::uint64_t>(opt.get_int("seed", 1)));
    std::cout << "adaptive: epsilon=" << cfg.epsilon << " trials="
              << adaptive.sweeps << " samples=" << adaptive.samples
              << " converged=" << (adaptive.converged ? 1 : 0)
              << " worst_ci=" << adaptive.worst_ci << "@m="
              << adaptive.worst_m << " relabel="
              << relabel_order_name(cfg.relabel) << " clique_cv_coverage="
              << adaptive.clique_node_fraction << "\n";
    if (telemetry_requested(opt)) {
      using Type = MetricsRegistry::Type;
      reg.add("optipar_estimator_sweeps_total", Type::kCounter,
              "Permutation sweeps executed", {},
              static_cast<double>(adaptive.sweeps));
      reg.add("optipar_estimator_samples_total", Type::kCounter,
              "Statistical samples accumulated", {},
              static_cast<double>(adaptive.samples));
      reg.add("optipar_estimator_converged", Type::kGauge,
              "1 when worst_ci <= epsilon at stop", {},
              adaptive.converged ? 1.0 : 0.0);
      reg.add("optipar_estimator_worst_ci", Type::kGauge,
              "Max CI half-width on r(m) at stop", {}, adaptive.worst_ci);
      tel.emit({telemetry::EventKind::kRoundEnd, 0, 0, adaptive.sweeps,
                adaptive.samples, adaptive.worst_ci, cfg.epsilon,
                "adaptive-curve"});
    }
    curve = std::move(adaptive.curve);
  } else {
    if (opt.has("relabel")) {
      g = relabel(g, parse_relabel_order(opt.get("relabel", "none"))).graph;
    }
    const auto trials =
        static_cast<std::uint32_t>(opt.get_int("trials", 300));
    Rng measure = measurement_rng(rng);
    curve = estimate_conflict_curve(g, trials, measure);
  }
  Table t({"m", "r_bar", "ci95", "expected_committed"});
  const NodeId n = g.num_nodes();
  for (std::uint32_t m = 1; m <= n; m = std::max(m + 1, m * 5 / 4)) {
    // Cells are built in place: GCC 12 at -O3 reports the string member of
    // an initializer list's numeric variant temporaries as uninitialized.
    std::vector<Table::Cell> row;
    row.reserve(4);
    row.emplace_back(static_cast<std::int64_t>(m));
    row.emplace_back(curve.r_bar(m));
    row.emplace_back(curve.r_bar_ci95(m));
    row.emplace_back(curve.expected_committed(m));
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  if (opt.has("csv")) t.write_csv(opt.get("csv", "curve.csv"));
  if (opt.has("metrics-out")) {
    tel.export_metrics(reg);
    write_metrics_file(opt.get("metrics-out", ""), reg);
  }
  if (opt.has("trace-out")) {
    write_trace_file(opt.get("trace-out", ""), nullptr, &tel);
  }
  return 0;
}

int cmd_mu(const Options& opt) {
  Rng rng(opt.get_int("seed", 1));
  auto g = load_graph(opt, rng);
  const double rho = opt.get_double("rho", 0.25);
  std::uint32_t mu = 1;
  telemetry::RuntimeTelemetry tel;
  MetricsRegistry reg;
  if (opt.has("epsilon")) {
    AdaptiveConfig cfg = adaptive_config(opt);
    if (telemetry_requested(opt)) cfg.timers = &tel.timers();
    const auto op = find_operating_point(
        g, rho, cfg, static_cast<std::uint64_t>(opt.get_int("seed", 1)));
    mu = op.mu;
    std::cout << "adaptive: epsilon=" << cfg.epsilon << " trials="
              << op.sweeps << " converged=" << (op.converged ? 1 : 0)
              << " r(mu)=" << op.r_at_mu << " ci=" << op.ci_at_mu
              << " relabel=" << relabel_order_name(cfg.relabel) << "\n";
    if (telemetry_requested(opt)) {
      using Type = MetricsRegistry::Type;
      reg.add("optipar_estimator_sweeps_total", Type::kCounter,
              "Permutation sweeps executed", {},
              static_cast<double>(op.sweeps));
      reg.add("optipar_estimator_converged", Type::kGauge,
              "1 when the CI target was met at stop", {},
              op.converged ? 1.0 : 0.0);
      reg.add("optipar_mu", Type::kGauge,
              "Estimated operating point mu(rho)", {},
              static_cast<double>(op.mu));
      tel.emit({telemetry::EventKind::kRoundEnd, 0, 0, op.sweeps, op.mu,
                op.r_at_mu, op.ci_at_mu, "adaptive-mu"});
    }
  } else {
    if (opt.has("relabel")) {
      g = relabel(g, parse_relabel_order(opt.get("relabel", "none"))).graph;
    }
    const auto trials =
        static_cast<std::uint32_t>(opt.get_int("trials", 400));
    Rng measure = measurement_rng(rng);
    mu = find_mu(g, rho, trials, measure);
  }
  std::cout << "n=" << g.num_nodes() << " d=" << g.average_degree()
            << " rho=" << rho << "\nmu ~= " << mu
            << "  (largest m with r_bar(m) <= rho)\n"
            << "theory warm start (Cor. 3, worst case): m0 = "
            << theory::warm_start_m(g.num_nodes(), g.average_degree(), rho)
            << "\n";
  if (opt.has("metrics-out")) {
    tel.export_metrics(reg);
    write_metrics_file(opt.get("metrics-out", ""), reg);
  }
  if (opt.has("trace-out")) {
    write_trace_file(opt.get("trace-out", ""), nullptr, &tel);
  }
  return 0;
}

int cmd_theory(const Options& opt) {
  const auto n = static_cast<std::uint32_t>(opt.get_int("n", 2000));
  const auto d = static_cast<std::uint32_t>(opt.get_int("d", 16));
  const std::uint32_t n_exact = n - n % (d + 1);
  std::cout << "n=" << n << " d=" << d << "\n"
            << "Turan bound (E[MIS] >=): " << theory::turan_bound(n, d)
            << "\ninitial derivative d/(2(n-1)): "
            << theory::initial_derivative(n, d) << "\n";
  Table t({"m", "EM_Kdn_exact", "bound_exact", "bound_cor2"});
  for (std::uint32_t m = 1; m <= n_exact;
       m = std::max(m + 1, m * 2)) {
    t.add_row({static_cast<std::int64_t>(m),
               theory::em_union_of_cliques(n_exact, d, m),
               theory::conflict_ratio_bound_exact(n_exact, d, m),
               theory::conflict_ratio_bound_approx(n, d, m)});
  }
  t.print(std::cout);
  return 0;
}

int cmd_control(const Options& opt) {
  Rng rng(opt.get_int("seed", 1));
  const auto g = load_graph(opt, rng);
  ControllerParams params;
  params.rho = opt.get_double("rho", 0.25);
  params.m0 = static_cast<std::uint32_t>(opt.get_int("m0", params.m0));
  params.m_max =
      static_cast<std::uint32_t>(opt.get_int("m-max", params.m_max));
  params.T = static_cast<std::uint32_t>(opt.get_int("T", params.T));
  if (opt.get_bool("warm-start", false)) {
    params = with_warm_start(params, g.num_nodes(), g.average_degree());
  }
  const std::string name = opt.get("controller", "hybrid");
  std::unique_ptr<Controller> controller = make_controller(name, params);
  if (!controller) {
    std::cerr << "unknown --controller=" << name << "\n";
    return 2;
  }

  StationaryWorkload workload(g);
  RunLoopConfig config;
  config.max_steps =
      static_cast<std::uint32_t>(opt.get_int("steps", 120));
  Rng measure = measurement_rng(rng);
  const auto trace = run_controlled(*controller, workload, config, measure);

  Table t({"step", "m", "launched", "committed", "aborted", "r"});
  for (const auto& s : trace.steps) {
    t.add_row({static_cast<std::int64_t>(s.step),
               static_cast<std::int64_t>(s.m),
               static_cast<std::int64_t>(s.launched),
               static_cast<std::int64_t>(s.committed),
               static_cast<std::int64_t>(s.aborted), s.conflict_ratio()});
  }
  t.print(std::cout);
  std::cout << "mean r = " << trace.mean_conflict_ratio()
            << ", wasted = " << trace.wasted_fraction() << "\n";
  if (opt.has("csv")) t.write_csv(opt.get("csv", "trace.csv"));
  return 0;
}

int cmd_chaos(const Options& opt) {
  // A fault-injected speculative run over the cell workload (random
  // counter updates under abstract locks, apps/app_spec.hpp), driven by
  // the adaptive closed loop. The run self-checks the §8 recovery invariants:
  // the shared state must equal the oracle restricted to non-quarantined
  // tasks, and no abstract lock may leak. Ends with one machine-parsable
  // summary line that scripts/run_chaos.sh asserts over.
  const auto tasks_n = static_cast<std::uint32_t>(opt.get_int("tasks", 400));
  const auto cells_n = static_cast<std::uint32_t>(opt.get_int("cells", 64));
  const auto threads = static_cast<std::size_t>(opt.get_int("threads", 4));
  const auto m0 = static_cast<std::uint32_t>(opt.get_int("m", 16));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  const auto fault_seed =
      static_cast<std::uint64_t>(opt.get_int("fault-seed", 42));
  const double rate = opt.get_double("fault-rate", 0.0);
  const double delay_rate = opt.get_double("delay-rate", rate / 2.0);
  const double lock_rate = opt.get_double("lock-rate", rate / 4.0);
  const double lane_rate = opt.get_double("lane-rate", 0.0);

  const std::vector<CellEffect> effects =
      cell_effects(seed, tasks_n, cells_n);

  const auto backend = parse_scheduler(opt);
  if (!backend) return usage();

  std::vector<std::int64_t> cells(cells_n, 0);
  const AppSpec spec = cell_spec(effects, cells);

  telemetry::RuntimeTelemetry tel;
  telemetry::SpanCollector spans;
  if (opt.has("trace-chrome")) tel.set_spans(&spans);
  FaultInjector injector(fault_seed);
  injector.set_rate(FaultSite::kOperatorThrow, rate);
  injector.set_rate(FaultSite::kOperatorDelay, delay_rate);
  injector.set_rate(FaultSite::kLockAcquire, lock_rate);
  injector.set_rate(FaultSite::kPoolLane, lane_rate);

  // Recovery invariant: the cells equal the sequential oracle over the
  // tasks that were not quarantined.
  const auto state_matches_oracle = [&](const SpeculativeExecutor& ex) {
    return cells == cell_oracle(effects, cells_n, ex.dead_letters());
  };

  JobConfig config;
  config.seed = seed * 7 + 1;
  config.scheduler = *backend;
  config.params.rho = opt.get_double("rho", 0.25);
  config.params.m0 = m0;
  config.params.m_max = static_cast<std::uint32_t>(
      opt.get_int("m-max", config.params.m_max));
  config.max_rounds =
      static_cast<std::uint32_t>(opt.get_int("rounds", 100000));
  config.timeout_ms = opt.get_int("timeout-ms", 0);
  if (telemetry_requested(opt)) config.telemetry = &tel;
  // --verify: the same facts as the inline invariants, restated through the
  // typed certifier so the verdict reaches telemetry (kCertify event,
  // "certify" span), the metrics document and the exit-code taxonomy.
  // Oracle divergence that the drain certificate cannot see maps to
  // kStateCorrupt.
  const bool do_verify = opt.get_bool("verify", false);
  if (do_verify) {
    config.certifier = [&](SpeculativeExecutor& ex) {
      verify::Certificate c = verify::certify_drained_run(ex, tasks_n);
      if (c.ok() && !state_matches_oracle(ex)) {
        c.code = verify::CertCode::kStateCorrupt;
        c.detail = "cells diverge from the sequential oracle";
      } else if (c.ok()) {
        ++c.checked;  // the oracle comparison
      }
      return c;
    };
  }
  ThreadPool pool(threads);
  AppJob job(pool, spec, std::move(config));
  SpeculativeExecutor& ex = job.executor();
  // --threads asks for that many lanes outright (lane-death injection
  // needs parallel lanes even on small hosts); the core-count cap is for
  // un-tuned production runs, not the chaos harness.
  ex.set_pipeline({.max_lanes = threads});
  ex.set_fault_injector(&injector);

  FailurePolicy policy;
  policy.max_retries =
      static_cast<std::uint32_t>(opt.get_int("max-retries", 3));
  policy.backoff_base_rounds =
      static_cast<std::uint32_t>(opt.get_int("backoff-base", 1));
  policy.backoff_cap_rounds =
      static_cast<std::uint32_t>(opt.get_int("backoff-cap", 16));
  policy.max_pool_failures =
      static_cast<std::uint32_t>(opt.get_int("max-pool-failures", 2));
  ex.set_failure_policy(policy);
  if (telemetry_requested(opt)) hook_injector(injector, tel, ex);

  const JobOutcome outcome = job.run();
  report_stop(job);
  // An expired --timeout-ms leaves the run incomplete by design; the
  // recovery invariants below would fail vacuously, so report the
  // interruption as its own typed outcome instead.
  if (outcome == JobOutcome::kDeadline) return kExitDeadline;
  const bool livelock = outcome == JobOutcome::kLivelock;
  const Trace& trace = job.trace();

  // Dead-letter report.
  if (!ex.dead_letters().empty()) {
    std::cout << "dead letters (" << ex.dead_letters().size() << "):\n";
    for (const auto& dl : ex.dead_letters()) {
      std::cout << "  task " << dl.task << " after " << dl.attempts
                << " attempts: " << dl.error << "\n";
    }
  }

  // Recovery invariants: state equals the oracle over non-quarantined
  // tasks, every task is accounted for, and no abstract lock leaked.
  const bool state_ok = state_matches_oracle(ex);
  const std::size_t lock_leaks = ex.locks().owned_count();
  const bool accounted =
      ex.totals().committed + ex.dead_letters().size() == tasks_n;
  const bool ok =
      state_ok && lock_leaks == 0 && (accounted || livelock) && !livelock;
  const auto& cert = job.certificate();
  write_job_files(opt, job, spans);

  std::cout << "CHAOS"
            << " fault_seed=" << fault_seed << " fault_rate=" << rate
            << " rounds=" << trace.steps.size()
            << " launched=" << ex.totals().launched
            << " committed=" << ex.totals().committed
            << " aborted=" << ex.totals().aborted
            << " retried=" << ex.totals().retried
            << " quarantined=" << ex.totals().quarantined
            << " injected=" << trace.total_injected()
            << " dead_letters=" << ex.dead_letters().size()
            << " pool_failures=" << ex.pool_failures()
            << " degraded=" << (ex.serial_degraded() ? 1 : 0)
            << " watchdog=" << (trace.watchdog_fired() ? 1 : 0)
            << " livelock=" << (livelock ? 1 : 0)
            << " lock_leaks=" << lock_leaks
            << " state=" << (state_ok ? "ok" : "corrupt")
            << " verdict=" << (ok ? "pass" : "fail");
  if (do_verify) {
    std::cout << " certified="
              << (cert->ok() ? "ok" : verify::cert_code_name(cert->code));
  }
  std::cout << "\n";
  if (!ok) return kExitError;
  if (do_verify && !cert->ok()) {
    std::cerr << "certification failed: " << cert->describe() << "\n";
    return kExitCertification;
  }
  return kExitOk;
}

CrashPoint parse_crash_point(const std::string& name) {
  if (name == "none") return CrashPoint::kNone;
  if (name == "mid-journal") return CrashPoint::kMidJournalWrite;
  if (name == "after-journal") return CrashPoint::kAfterJournalAppend;
  if (name == "mid-snapshot") return CrashPoint::kMidSnapshotWrite;
  if (name == "before-rename") return CrashPoint::kBeforeSnapshotRename;
  if (name == "after-rename") return CrashPoint::kAfterSnapshotRename;
  throw std::invalid_argument("unknown --crash-point=" + name);
}

/// `run --app=<name>`: one of the seven application kernels end to end —
/// generated input, adaptive speculative run on the chosen backend, and an
/// ALWAYS-ON independent result certificate (verify/harness.hpp). One
/// machine-parsable APPRUN summary line; a refuted certificate exits 8.
int cmd_run_app(const Options& opt) {
  const std::string name = opt.get("app", "");
  const auto app = verify::parse_app(name);
  if (!app) {
    std::cerr << "unknown --app=" << name
              << " (expected mis|coloring|sssp|boruvka|maxflow|sp|dmr)\n";
    return kExitUsage;
  }
  const auto backend = parse_scheduler(opt);
  if (!backend) return usage();

  verify::AppRunOptions options;
  options.nodes = static_cast<std::uint32_t>(opt.get_int("n", 300));
  options.degree = static_cast<std::uint32_t>(opt.get_int("d", 8));
  options.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  options.scheduler = *backend;
  options.controller = opt.get("controller", "hybrid");
  options.rho = opt.get_double("rho", 0.25);
  options.max_rounds =
      static_cast<std::uint32_t>(opt.get_int("steps", 200000));

  telemetry::RuntimeTelemetry tel;
  if (telemetry_requested(opt)) options.telemetry = &tel;

  ThreadPool pool(static_cast<std::size_t>(opt.get_int("threads", 4)));
  const verify::AppRunReport report =
      verify::run_app_certified(*app, pool, options);

  if (opt.has("metrics-out")) {
    write_metrics_file(opt.get("metrics-out", ""), report.metrics);
  }
  if (opt.has("trace-out")) {
    write_trace_file(opt.get("trace-out", ""), &report.trace,
                     telemetry_requested(opt) ? &tel : nullptr);
  }
  if (report.outcome == JobOutcome::kLivelock) {
    std::cerr << "livelock: " << report.certificate.describe() << "\n";
    return kExitLivelock;
  }

  const verify::Certificate& cert = report.certificate;
  std::cout << "APPRUN app=" << verify::app_name(*app)
            << " scheduler=" << sched::backend_name(*backend)
            << " controller=" << options.controller
            << " rounds=" << report.rounds
            << " launched=" << report.launched
            << " committed=" << report.committed
            << " aborted=" << report.aborted
            << " answer=" << report.answer
            << " checked=" << cert.checked << " certified="
            << (cert.ok() ? "ok" : verify::cert_code_name(cert.code))
            << "\n";
  if (!cert.ok()) {
    std::cerr << "certification failed: " << cert.describe() << "\n";
    return kExitCertification;
  }
  return kExitOk;
}

int cmd_run(const Options& opt) {
  if (opt.has("app")) return cmd_run_app(opt);
  // The paper's closed loop on the REAL runtime (not the step simulator):
  // one task per graph node, each acquiring its closed neighborhood — so
  // two tasks conflict iff their nodes are adjacent, which is exactly the
  // CC-graph semantics the model analyzes. Tasks drain (commit removes
  // them), the controller adapts m round by round, and the telemetry layer
  // observes every phase.
  Rng rng(opt.get_int("seed", 1));
  const auto g = load_graph(opt, rng);
  // --timeout-ms is checked at round boundaries (the same JobDeadline the
  // serve daemon applies per job). Expiry exits with kExitDeadline after a
  // forced checkpoint when --checkpoint-dir is armed, so a timed-out run
  // is resumable with --resume.
  std::optional<JobConfig> job_config = closed_loop_config(opt);
  if (!job_config) return kExitUsage;
  JobConfig& config = *job_config;
  if (opt.get_bool("warm-start", false)) {
    config.params =
        with_warm_start(config.params, g.num_nodes(), g.average_degree());
  }

  telemetry::RuntimeTelemetry tel;
  // Span tracing is explicit opt-in: the collector's extra clock reads sit
  // outside the plain-telemetry overhead budget the sentinel enforces.
  telemetry::SpanCollector spans;
  if (opt.has("trace-chrome")) tel.set_spans(&spans);
  config.telemetry = &tel;  // `run` exists to observe: always attached

  if (opt.has("checkpoint-dir")) {
    config.checkpoint = CheckpointConfig{
        .dir = opt.get("checkpoint-dir", ""),
        .every = static_cast<std::uint32_t>(opt.get_int("checkpoint-every", 8)),
        .crash_point = parse_crash_point(opt.get("crash-point", "none")),
        .crash_round =
            static_cast<std::uint32_t>(opt.get_int("crash-round", 0))};
    config.fingerprint = graph_fingerprint(g);
    config.resume = opt.get_bool("resume", false);
  }

  // --verify: certify the drained run (every task accounted for, no lock
  // leaks); the verdict lands in the telemetry stream (kCertify event +
  // "certify" span), the summary line and the metrics document, and a
  // refuted certificate exits 8. Off-path stays byte-identical.
  const bool do_verify = opt.get_bool("verify", false);
  if (do_verify) {
    config.certifier = [total = static_cast<std::uint64_t>(g.num_nodes())](
                           SpeculativeExecutor& ex) {
      return verify::certify_drained_run(ex, total);
    };
  }

  ThreadPool pool(static_cast<std::size_t>(opt.get_int("threads", 4)));
  const AppSpec spec = lock_only_spec(g);
  AppJob job(pool, spec, std::move(config));
  const JobOutcome outcome = job.run();
  report_stop(job);
  const Trace& trace = job.trace();
  const auto& cert = job.certificate();

  Table t({"step", "m", "launched", "committed", "aborted", "pending", "r"});
  for (const auto& s : trace.steps) {
    t.add_row({static_cast<std::int64_t>(s.step),
               static_cast<std::int64_t>(s.m),
               static_cast<std::int64_t>(s.launched),
               static_cast<std::int64_t>(s.committed),
               static_cast<std::int64_t>(s.aborted),
               static_cast<std::int64_t>(s.pending_after),
               s.conflict_ratio()});
  }
  t.print(std::cout);
  std::cout << "rounds=" << trace.steps.size()
            << " committed=" << job.executor().totals().committed
            << " wasted=" << trace.wasted_fraction()
            << " mean_r=" << trace.mean_conflict_ratio()
            << " drained=" << (job.executor().done() ? 1 : 0)
            << " livelock=" << (outcome == JobOutcome::kLivelock ? 1 : 0);
  if (do_verify) {
    std::cout << " certified="
              << (cert.has_value()
                      ? (cert->ok() ? "ok" : verify::cert_code_name(cert->code))
                      : "none");
  }
  std::cout << "\n";
  if (do_verify && cert.has_value() && !cert->ok()) {
    std::cerr << "certification failed: " << cert->describe() << "\n";
  }
  if (opt.has("csv")) t.write_csv(opt.get("csv", "run.csv"));
  write_job_files(opt, job, spans);
  if (outcome == JobOutcome::kLivelock) return kExitLivelock;
  if (outcome == JobOutcome::kDeadline) return kExitDeadline;
  if (do_verify && (!cert.has_value() || !cert->ok())) {
    return kExitCertification;
  }
  return kExitOk;
}

int cmd_profile(const Options& opt) {
  // Conflict-attribution profile (DESIGN.md §15): the same closed loop as
  // `run`, with the per-item profiler attached — WHICH graph regions kill
  // speculative work, and does contention concentrate on high-degree
  // nodes? At one lane the report is exactly reproducible run-to-run (the
  // CI trace-smoke job diffs two runs).
  Rng rng(opt.get_int("seed", 1));
  const auto g = load_graph(opt, rng);
  std::optional<JobConfig> config = closed_loop_config(opt);
  if (!config) return kExitUsage;

  telemetry::RuntimeTelemetry tel;
  telemetry::ConflictProfiler prof(g.num_nodes());
  std::vector<std::uint32_t> degrees(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) degrees[v] = g.degree(v);
  prof.set_degrees(std::move(degrees));
  tel.set_profiler(&prof);
  config->telemetry = &tel;

  ThreadPool pool(static_cast<std::size_t>(opt.get_int("threads", 4)));
  const AppSpec spec = lock_only_spec(g);
  AppJob job(pool, spec, std::move(*config));
  (void)job.run();
  report_stop(job);
  const Trace& trace = job.trace();

  const auto k = static_cast<std::size_t>(opt.get_int("top", 16));
  prof.write_report(std::cout, k);
  std::cout << "scheduler="
            << sched::backend_name(job.executor().scheduler_backend())
            << " rounds=" << trace.steps.size()
            << " committed=" << job.executor().totals().committed
            << " mean_r=" << trace.mean_conflict_ratio()
            << " top" << k << "_share=" << prof.top_share(k) << "\n";
  if (opt.has("out")) {
    const std::string out = opt.get("out", "");
    std::ofstream os(out);
    if (!os) throw std::runtime_error("cannot open --out=" + out);
    prof.write_json(os, k);
  }
  return kExitOk;
}

int cmd_metrics(const Options& opt) {
  // Scrape-surface demo: run a small deterministic workload with telemetry
  // attached and print the export. The counter values are reproducible
  // (fixed seed, fixed graph); the phase timings naturally are not.
  const CsrGraph g = gen::union_of_cliques(60, 5);
  telemetry::RuntimeTelemetry tel;
  JobConfig config;
  config.seed = static_cast<std::uint64_t>(opt.get_int("seed", 12345));
  config.params.rho = 0.25;
  config.telemetry = &tel;
  ThreadPool pool(static_cast<std::size_t>(opt.get_int("threads", 2)));
  const AppSpec spec = lock_only_spec(g);
  AppJob job(pool, spec, std::move(config));
  (void)job.run();

  MetricsRegistry reg;
  job.export_metrics(reg);
  const std::string format = opt.get("format", "prometheus");
  if (format == "json") {
    reg.render_json(std::cout);
  } else if (format == "prometheus") {
    reg.render_prometheus(std::cout);
  } else {
    std::cerr << "unknown --format=" << format << " (prometheus|json)\n";
    return 2;
  }
  return 0;
}

int cmd_seating(const Options& opt) {
  const auto n = static_cast<std::uint32_t>(opt.get_int("n", 1000));
  std::cout << "unfriendly seating, n=" << n << "\n"
            << "path  E[MIS] = " << seating::expected_path(n)
            << " (density " << seating::expected_path(n) / n << ")\n"
            << "cycle E[MIS] = " << seating::expected_cycle(std::max(3u, n))
            << "\nlimit density (1-e^-2)/2 = " << seating::path_density_limit()
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Options opt(argc - 1, argv + 1);
  try {
    if (command == "gen") return cmd_gen(opt);
    if (command == "curve") return cmd_curve(opt);
    if (command == "mu") return cmd_mu(opt);
    if (command == "theory") return cmd_theory(opt);
    if (command == "control") return cmd_control(opt);
    if (command == "seating") return cmd_seating(opt);
    if (command == "chaos") return cmd_chaos(opt);
    if (command == "run") return cmd_run(opt);
    if (command == "metrics") return cmd_metrics(opt);
    if (command == "profile") return cmd_profile(opt);
  } catch (const io::GraphIoError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitGraphIo;
  } catch (const snapshot::SnapshotError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitSnapshot;
  } catch (const LivelockError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitLivelock;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitError;
  }
  return usage();
}
