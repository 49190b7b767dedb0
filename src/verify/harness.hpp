// Certified application harness: run one of the seven app kernels end to
// end — generated input, speculative adaptive run, post-run certificate —
// under any controller and scheduler backend. This is the engine behind
// `optipar_cli run --app=<name> --verify` and the verify-smoke CI job: one
// entry point that exercises the whole certification stack (AdaptiveRun's
// certify step, telemetry surfacing, typed failure taxonomy) on real
// workloads instead of the synthetic cell grid.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "apps/job.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace.hpp"
#include "support/telemetry/metrics_registry.hpp"
#include "support/thread_pool.hpp"
#include "verify/certifier.hpp"

namespace optipar::telemetry {
class RuntimeTelemetry;
}

namespace optipar::verify {

enum class AppKind : std::uint8_t {
  kMis,
  kColoring,
  kSssp,
  kBoruvka,
  kMaxflow,
  kSp,
  kDmr,
};

[[nodiscard]] const char* app_name(AppKind app) noexcept;
[[nodiscard]] std::optional<AppKind> parse_app(std::string_view name);

struct AppRunOptions {
  /// Problem size. Nodes for the graph kernels; variables for sp; points
  /// for dmr; network width scales from it for maxflow.
  std::uint32_t nodes = 300;
  std::uint32_t degree = 8;  ///< average degree (graph kernels)
  std::uint64_t seed = 1;
  sched::Backend scheduler = sched::Backend::kRandom;
  std::string controller = "hybrid";
  double rho = 0.25;
  std::uint32_t max_rounds = 200000;
  /// Optional sink, attached to the run's executor; the certificate's
  /// kCertify event and "certify" span land here.
  telemetry::RuntimeTelemetry* telemetry = nullptr;
};

struct AppRunReport {
  /// How the run ended; a livelocked run's certificate reads kNotDrained.
  JobOutcome outcome = JobOutcome::kDrained;
  Certificate certificate;
  Trace trace;
  /// The run's metrics document (AppJob::export_metrics).
  MetricsRegistry metrics;
  std::uint64_t rounds = 0;
  std::uint64_t launched = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  /// One app-defined headline number: |MIS|, colors used, reachable nodes,
  /// forest weight, max-flow value, satisfied (0/1), alive triangles.
  double answer = 0.0;
};

/// Generate the app's input from (nodes, degree, seed), run it as an
/// AppJob under the named controller on the chosen backend, certify, and
/// report.
/// The certificate also covers completeness (kNotDrained / kLockLeak) —
/// a run stopped by max_rounds refutes rather than passes. Throws
/// std::invalid_argument for an unknown controller name.
[[nodiscard]] AppRunReport run_app_certified(AppKind app, ThreadPool& pool,
                                             const AppRunOptions& options);

}  // namespace optipar::verify
