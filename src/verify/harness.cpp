#include "verify/harness.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/app_spec.hpp"
#include "apps/boruvka/boruvka.hpp"
#include "apps/coloring/coloring.hpp"
#include "apps/dmr/delaunay.hpp"
#include "apps/dmr/refine.hpp"
#include "apps/maxflow/maxflow.hpp"
#include "apps/mis/mis.hpp"
#include "apps/sp/survey.hpp"
#include "apps/sssp/sssp.hpp"
#include "control/factory.hpp"
#include "graph/generators.hpp"
#include "graph/weighted_graph.hpp"
#include "support/rng.hpp"
#include "verify/app_certs.hpp"

namespace optipar::verify {

const char* app_name(AppKind app) noexcept {
  switch (app) {
    case AppKind::kMis: return "mis";
    case AppKind::kColoring: return "coloring";
    case AppKind::kSssp: return "sssp";
    case AppKind::kBoruvka: return "boruvka";
    case AppKind::kMaxflow: return "maxflow";
    case AppKind::kSp: return "sp";
    case AppKind::kDmr: return "dmr";
  }
  return "unknown";
}

std::optional<AppKind> parse_app(std::string_view name) {
  for (const AppKind app :
       {AppKind::kMis, AppKind::kColoring, AppKind::kSssp, AppKind::kBoruvka,
        AppKind::kMaxflow, AppKind::kSp, AppKind::kDmr}) {
    if (name == app_name(app)) return app;
  }
  return std::nullopt;
}

namespace {

std::unique_ptr<Controller> make_run_controller(const AppRunOptions& opt) {
  ControllerParams params;
  params.rho = opt.rho;
  params.m_max = std::max<std::uint32_t>(2, opt.nodes);
  std::unique_ptr<Controller> controller =
      make_controller(opt.controller, params);
  if (controller == nullptr) {
    throw std::invalid_argument("unknown controller: " + opt.controller);
  }
  return controller;
}

/// The harness certificate = completeness (drained, no lock leaks) THEN
/// the app's answer certificate — so a run stopped by max_rounds refutes
/// with kNotDrained instead of certifying a half-finished answer.
Certificate completeness_then(SpeculativeExecutor& ex,
                              const Certifier& app_cert) {
  if (!ex.done()) {
    Certificate cert;
    cert.code = CertCode::kNotDrained;
    cert.detail = std::to_string(ex.pending()) + " tasks still pending";
    return cert;
  }
  if (const std::size_t leaked = ex.locks().owned_count(); leaked != 0) {
    Certificate cert;
    cert.code = CertCode::kLockLeak;
    cert.detail = std::to_string(leaked) + " abstract locks still owned";
    return cert;
  }
  Certificate cert = app_cert();
  cert.checked += 2;  // the drain + lock-leak facts above
  return cert;
}

/// Run `spec` to drain on the chosen backend, certified by completeness
/// and then `app_cert`, and collect the common report fields.
AppRunReport run_spec(ThreadPool& pool, const AppRunOptions& opt,
                      const AppSpec& spec, const Certifier& app_cert) {
  const auto ex = build_executor(pool, spec, opt.seed * 11 + 3,
                                 RoundOptions{.scheduler = opt.scheduler});
  if (opt.telemetry != nullptr) ex->set_telemetry(opt.telemetry);
  auto controller = make_run_controller(opt);
  AdaptiveRunConfig config;
  config.max_rounds = opt.max_rounds;
  config.certifier = [&ex, &app_cert] {
    return completeness_then(*ex, app_cert);
  };
  DrainResult drained = drain(*ex, spec, *controller, std::move(config));
  AppRunReport report;
  if (drained.certificate.has_value()) {
    report.certificate = *drained.certificate;
  }
  report.trace = std::move(drained.trace);
  report.rounds = ex->totals().rounds;
  report.launched = ex->totals().launched;
  report.committed = ex->totals().committed;
  report.aborted = ex->totals().aborted;
  return report;
}

AppRunReport run_mis(ThreadPool& pool, const AppRunOptions& opt) {
  Rng rng(opt.seed);
  const CsrGraph g =
      gen::random_with_average_degree(opt.nodes, opt.degree, rng);
  mis::MisState state(g.num_nodes());
  AppRunReport report = run_spec(pool, opt, mis::make_spec(g, state),
                                 [&] { return certify_mis(g, state); });
  report.answer = static_cast<double>(state.in_set().size());
  return report;
}

AppRunReport run_coloring(ThreadPool& pool, const AppRunOptions& opt) {
  Rng rng(opt.seed);
  const CsrGraph g =
      gen::random_with_average_degree(opt.nodes, opt.degree, rng);
  coloring::ColoringState state(g.num_nodes());
  AppRunReport report =
      run_spec(pool, opt, coloring::make_spec(g, state),
               [&] { return certify_coloring(g, state); });
  report.answer = static_cast<double>(state.colors_used());
  return report;
}

AppRunReport run_sssp(ThreadPool& pool, const AppRunOptions& opt) {
  Rng rng(opt.seed);
  const CsrGraph base =
      gen::random_with_average_degree(opt.nodes, opt.degree, rng);
  std::vector<WeightedEdgeTriple> edges;
  for (const auto& [u, v] : base.edges()) {
    edges.push_back({u, v, rng.uniform() * 10.0 + 0.1});
  }
  const WeightedGraph g = WeightedGraph::from_edges(base.num_nodes(), edges);
  const NodeId source = 0;
  sssp::DistanceTable dist(g.num_nodes(), source);
  AppRunReport report =
      run_spec(pool, opt, sssp::make_spec(g, dist),
               [&] { return certify_sssp(g, source, dist.all()); });
  double reached = 0.0;
  for (const double d : dist.all()) {
    if (d != sssp::kUnreachable) reached += 1.0;
  }
  report.answer = reached;
  return report;
}

AppRunReport run_boruvka(ThreadPool& pool, const AppRunOptions& opt) {
  Rng rng(opt.seed);
  const CsrGraph base =
      gen::random_with_average_degree(opt.nodes, opt.degree, rng);
  std::vector<boruvka::WeightedEdge> edges;
  for (const auto& [u, v] : base.edges()) {
    edges.push_back({u, v, rng.uniform() * 100.0 + 1e-3});
  }
  boruvka::ContractionGraph graph(base.num_nodes(), edges);
  AppRunReport report =
      run_spec(pool, opt, boruvka::make_spec(graph), [&] {
        return certify_boruvka(base.num_nodes(), edges, graph.chosen_weight(),
                               graph.chosen_count());
      });
  report.answer = graph.chosen_weight();
  return report;
}

AppRunReport run_maxflow(ThreadPool& pool, const AppRunOptions& opt) {
  // Layered random network s -> L1 -> L2 -> t, width scaled from `nodes`.
  const NodeId width = std::max<NodeId>(4, opt.nodes / 10);
  const NodeId n = 2 * width + 2;
  const NodeId s = 0;
  const NodeId t = n - 1;
  maxflow::FlowNetwork net(n);
  Rng rng(opt.seed);
  for (NodeId v = 1; v <= width; ++v) {
    net.add_arc(s, v, rng.uniform() * 8.0 + 1.0);
  }
  for (NodeId v = 1; v <= width; ++v) {
    for (int k = 0; k < 3; ++k) {
      const NodeId w =
          width + 1 + static_cast<NodeId>(rng.below(width));
      net.add_arc(v, w, rng.uniform() * 6.0 + 0.5);
    }
  }
  for (NodeId w = width + 1; w <= 2 * width; ++w) {
    net.add_arc(w, t, rng.uniform() * 8.0 + 1.0);
  }
  maxflow::PushRelabelState state(n, s);
  AppRunReport report =
      run_spec(pool, opt, maxflow::make_spec(net, state, s, t),
               [&] { return certify_maxflow(net, s, t, state.excess(t)); });
  report.answer = state.excess(t);
  return report;
}

AppRunReport run_sp(ThreadPool& pool, const AppRunOptions& opt) {
  // Ratio 2.0 keeps instances satisfiable w.h.p. (3-SAT threshold ~4.27),
  // so a refuted certificate signals a runtime bug, not a hard instance.
  Rng rng(opt.seed);
  const sp::Formula formula =
      sp::random_ksat(opt.nodes, opt.nodes * 2, 3, rng);
  sp::SpConfig config;
  config.scheduler = opt.scheduler;
  auto controller = make_run_controller(opt);
  const sp::SidResult result =
      sp::solve_with_sid(formula, config, rng, controller.get(), &pool);
  AppRunReport report;
  report.certificate = run_certifier(
      [&formula, &result] { return certify_sp(formula, result); },
      opt.telemetry, result.trace.steps.size());
  report.trace = result.trace;
  report.rounds = report.trace.steps.size();
  for (const StepRecord& step : report.trace.steps) {
    report.launched += step.launched;
    report.committed += step.committed;
    report.aborted += step.aborted;
  }
  report.answer = result.satisfied ? 1.0 : 0.0;
  return report;
}

AppRunReport run_dmr(ThreadPool& pool, const AppRunOptions& opt) {
  Rng rng(opt.seed);
  std::vector<dmr::Point2> pts;
  pts.reserve(opt.nodes);
  for (std::uint32_t i = 0; i < opt.nodes; ++i) {
    pts.push_back({rng.uniform() * 100.0, rng.uniform() * 100.0});
  }
  dmr::Mesh mesh;
  dmr::build_delaunay(mesh, pts, 16.0);
  dmr::RefineQuality q;
  q.min_angle_deg = 25.0;
  q.min_edge = 2.0;
  q.set_domain(pts);
  const std::uint64_t cert_seed = opt.seed ^ 0x5eedULL;
  AppRunReport report = run_spec(pool, opt, dmr::make_spec(mesh, q), [&] {
    return certify_mesh(mesh, q, dmr::kNumSuperVertices,
                        /*spot_checks=*/64, cert_seed);
  });
  report.answer = static_cast<double>(mesh.num_alive_triangles());
  return report;
}

}  // namespace

AppRunReport run_app_certified(AppKind app, ThreadPool& pool,
                               const AppRunOptions& options) {
  switch (app) {
    case AppKind::kMis: return run_mis(pool, options);
    case AppKind::kColoring: return run_coloring(pool, options);
    case AppKind::kSssp: return run_sssp(pool, options);
    case AppKind::kBoruvka: return run_boruvka(pool, options);
    case AppKind::kMaxflow: return run_maxflow(pool, options);
    case AppKind::kSp: return run_sp(pool, options);
    case AppKind::kDmr: return run_dmr(pool, options);
  }
  throw std::invalid_argument("unknown app kind");
}

}  // namespace optipar::verify
