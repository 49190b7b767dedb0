#include "apps/job.hpp"

#include <sys/stat.h>

#include <ostream>
#include <stdexcept>
#include <utility>

#include "control/factory.hpp"
#include "support/deadline.hpp"
#include "support/telemetry/metrics_registry.hpp"
#include "support/telemetry/telemetry.hpp"

namespace optipar {

AppJob::AppJob(ThreadPool& pool, const AppSpec& spec, JobConfig config)
    : executor_(build_executor(pool, spec, config.seed,
                               RoundOptions{.scheduler = config.scheduler})),
      controller_(make_controller(config.controller, config.params)) {
  if (controller_ == nullptr) {
    throw std::invalid_argument("unknown controller '" + config.controller +
                                "'");
  }
  if (config.telemetry != nullptr) {
    // Decision events report r̄ - ρ against the controller's own target.
    config.telemetry->set_target_rho(config.params.rho);
  }
  executor_->set_telemetry(config.telemetry);
  AdaptiveRunConfig rcfg;
  rcfg.max_rounds = config.max_rounds;
  rcfg.before_round = spec.before_round;
  rcfg.deadline = JobDeadline::after_ms(config.timeout_ms);
  rcfg.cancel = config.cancel;
  if (config.certifier) {
    rcfg.certifier = [ex = executor_.get(),
                      certify = std::move(config.certifier)] {
      return certify(*ex);
    };
  }
  if (config.checkpoint.has_value()) {
    const std::string& dir = config.checkpoint->dir;
    // Best effort: the journal open reports an unusable directory.
    ::mkdir(dir.c_str(), 0755);
    if (!config.resume) CheckpointManager::remove_files(dir);
    checkpoint_ = std::make_unique<CheckpointManager>(*config.checkpoint,
                                                      config.fingerprint);
    checkpoint_->set_telemetry(config.telemetry);
    rcfg.checkpoint = checkpoint_.get();
  }
  run_ = std::make_unique<AdaptiveRun>(*executor_, *controller_,
                                       std::move(rcfg));
}

bool AppJob::step() {
  if (outcome_.has_value()) return false;
  try {
    if (run_->step()) return true;
    outcome_ = executor_->done() ? JobOutcome::kDrained
                                 : JobOutcome::kRoundCap;
  } catch (const LivelockError& e) {
    outcome_ = JobOutcome::kLivelock;
    error_ = e.what();
    run_->ensure_certified();  // the run stopped for good: judge it
  } catch (const JobInterrupted& e) {
    outcome_ = e.reason() == JobInterrupted::Reason::kDeadline
                   ? JobOutcome::kDeadline
                   : JobOutcome::kCancelled;
    error_ = e.what();
  }
  return false;
}

JobOutcome AppJob::run() {
  while (step()) {
  }
  return *outcome_;
}

void AppJob::export_metrics(MetricsRegistry& reg) const {
  if (const auto* tel = executor_->telemetry(); tel != nullptr) {
    tel->export_metrics(reg);
  }
  using Type = MetricsRegistry::Type;
  const SpeculativeExecutor& ex = *executor_;
  const ExecutorTotals& t = ex.totals();
  // Round counters carry the scheduler backend as a label so dashboards
  // can split abort/commit behavior by draw strategy (README "Scheduler
  // backends"); check_metrics.py reconciles by summing over all samples,
  // so the label is invariant-transparent.
  const MetricsRegistry::Labels sched_label{
      {"scheduler", sched::backend_name(ex.scheduler_backend())}};
  reg.add("optipar_rounds_total", Type::kCounter, "Executor rounds run",
          sched_label, static_cast<double>(t.rounds));
  reg.add("optipar_launched_total", Type::kCounter,
          "Speculative tasks launched", sched_label,
          static_cast<double>(t.launched));
  reg.add("optipar_committed_total", Type::kCounter, "Tasks committed",
          sched_label, static_cast<double>(t.committed));
  reg.add("optipar_aborted_total", Type::kCounter,
          "Tasks aborted (conflicted or faulted)", sched_label,
          static_cast<double>(t.aborted));
  reg.add("optipar_retried_total", Type::kCounter,
          "Faulted tasks requeued with backoff", sched_label,
          static_cast<double>(t.retried));
  reg.add("optipar_quarantined_total", Type::kCounter,
          "Tasks moved to the dead-letter list", sched_label,
          static_cast<double>(t.quarantined));
  reg.add("optipar_dead_letters", Type::kGauge,
          "Tasks currently quarantined", {},
          static_cast<double>(ex.dead_letters().size()));
  reg.add("optipar_pool_failures_total", Type::kCounter,
          "Rounds in which a pool lane died", {},
          static_cast<double>(ex.pool_failures()));
  reg.add("optipar_serial_degraded", Type::kGauge,
          "1 once the executor pinned itself to the serial path", {},
          ex.serial_degraded() ? 1.0 : 0.0);
  reg.add("optipar_wasted_fraction", Type::kGauge,
          "aborted / launched over the whole run", {}, t.wasted_fraction());
  if (certificate().has_value()) {
    verify::export_certificate_metrics(reg, *certificate());
  }
}

void AppJob::write_trace_jsonl(std::ostream& os) {
  optipar::write_trace_jsonl(os, trace());
  if (auto* tel = executor_->telemetry(); tel != nullptr) {
    telemetry::write_events_jsonl(os, tel->drain_events());
  }
}

}  // namespace optipar
