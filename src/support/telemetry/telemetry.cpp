#include "support/telemetry/telemetry.hpp"

#include <algorithm>
#include <bit>

#include "support/telemetry/conflict_profiler.hpp"
#include "support/telemetry/metrics_registry.hpp"
#include "support/telemetry/span_trace.hpp"

namespace optipar::telemetry {

std::string describe_exception(const std::exception_ptr& error) {
  if (!error) return "unknown error";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-std exception";
  }
}

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kRoundStart: return "round_start";
    case EventKind::kRoundEnd: return "round_end";
    case EventKind::kControllerDecision: return "controller_decision";
    case EventKind::kRetry: return "retry";
    case EventKind::kQuarantine: return "quarantine";
    case EventKind::kFaultFired: return "fault_fired";
    case EventKind::kLaneDeath: return "lane_death";
    case EventKind::kWatchdogDegrade: return "watchdog_degrade";
    case EventKind::kSerialDegrade: return "serial_degrade";
    case EventKind::kLivelock: return "livelock";
    case EventKind::kError: return "error";
    case EventKind::kCheckpoint: return "checkpoint";
    case EventKind::kRecovery: return "recovery";
    case EventKind::kCertify: return "certify";
  }
  return "unknown";
}

namespace {
void write_escaped(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) os << c;
    }
  }
}
}  // namespace

void write_events_jsonl(std::ostream& os,
                        std::span<const TraceEvent> events) {
  for (const TraceEvent& ev : events) {
    os << "{\"type\":\"event\",\"kind\":\"" << event_kind_name(ev.kind)
       << "\",\"round\":" << ev.round << ",\"lane\":" << ev.lane
       << ",\"a\":" << ev.a << ",\"b\":" << ev.b
       << ",\"x\":" << MetricsRegistry::format_value(ev.x)
       << ",\"y\":" << MetricsRegistry::format_value(ev.y);
    if (!ev.note.empty()) {
      os << ",\"note\":\"";
      write_escaped(os, ev.note);
      os << '"';
    }
    os << "}\n";
  }
}

// ---------------------------------------------------------------------------
// EventRing
// ---------------------------------------------------------------------------

EventRing::EventRing(std::size_t capacity) {
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(capacity, 8));
  buf_.resize(cap);
  mask_ = cap - 1;
}

void EventRing::push(TraceEvent event) noexcept {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  if (head - tail == buf_.size()) {
    // Full: drop the oldest. Single-producer, and drains only happen at
    // quiescent points, so advancing the tail here cannot race a reader.
    tail_.store(tail + 1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  buf_[head & mask_] = std::move(event);
  head_.store(head + 1, std::memory_order_release);
}

std::size_t EventRing::size() const noexcept {
  return static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                  tail_.load(std::memory_order_relaxed));
}

void EventRing::drain(std::vector<TraceEvent>& out) {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  out.reserve(out.size() + static_cast<std::size_t>(head - tail));
  for (; tail != head; ++tail) {
    out.push_back(std::move(buf_[tail & mask_]));
  }
  tail_.store(tail, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// TimerSet
// ---------------------------------------------------------------------------

TimerAccumulator& TimerSet::at(const std::string& name) {
  const std::lock_guard lock(mutex_);
  auto& slot = named_[name];
  if (!slot) slot = std::make_unique<TimerAccumulator>();
  return *slot;
}

std::vector<TimerSet::Entry> TimerSet::snapshot() const {
  const std::lock_guard lock(mutex_);
  std::vector<Entry> out;
  out.reserve(named_.size());
  for (const auto& [name, acc] : named_) {
    out.push_back({name, acc->total_ns(), acc->count()});
  }
  return out;  // std::map iteration is already name-sorted
}

// ---------------------------------------------------------------------------
// RuntimeTelemetry
// ---------------------------------------------------------------------------

RuntimeTelemetry::RuntimeTelemetry(TelemetryConfig config)
    : config_(config), control_(config.ring_capacity) {}

void RuntimeTelemetry::ensure_lanes(std::size_t n) {
  while (lanes_.size() < n) {
    lanes_.push_back(std::make_unique<LaneTelemetry>(config_.ring_capacity));
  }
  wire_lane_sinks();
}

void RuntimeTelemetry::set_spans(SpanCollector* spans) {
  spans_ = spans;
  wire_lane_sinks();
}

void RuntimeTelemetry::set_profiler(ConflictProfiler* profiler) {
  profiler_ = profiler;
  wire_lane_sinks();
}

void RuntimeTelemetry::wire_lane_sinks() {
  // Each lane reaches the optional sinks through its own pointer, so a
  // detached sink stays the usual single-pointer-test no-op on hot paths.
  if (spans_ != nullptr) spans_->ensure_lanes(lanes_.size());
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    lanes_[l]->spans = spans_ != nullptr ? &spans_->lane(l) : nullptr;
    lanes_[l]->prof = profiler_;
  }
}

void RuntimeTelemetry::emit(TraceEvent event) {
  const std::lock_guard lock(control_mutex_);
  control_.push(std::move(event));
}

std::vector<TraceEvent> RuntimeTelemetry::drain_events() {
  std::vector<TraceEvent> out;
  {
    const std::lock_guard lock(control_mutex_);
    control_.drain(out);
  }
  for (auto& lane : lanes_) lane->ring.drain(out);
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.round < b.round;
                   });
  return out;
}

TelemetryTotals RuntimeTelemetry::totals() const {
  TelemetryTotals t;
  for (const auto& lane : lanes_) {
    t.executed += lane->executed;
    t.committed += lane->committed;
    t.aborted += lane->aborted;
    t.retried += lane->retried;
    t.quarantined += lane->quarantined;
    t.lock_failures += lane->lock_failures;
    t.dropped_events += lane->ring.dropped();
    t.work.merge(lane->work);
  }
  return t;
}

std::uint64_t RuntimeTelemetry::total_dropped() const {
  std::uint64_t dropped = control_.dropped();
  for (const auto& lane : lanes_) dropped += lane->ring.dropped();
  return dropped;
}

namespace {

void add_lane_counter(MetricsRegistry& reg, const std::string& name,
                      const std::string& help, std::size_t lane,
                      std::uint64_t value) {
  reg.add(name, MetricsRegistry::Type::kCounter, help,
          {{"lane", std::to_string(lane)}}, static_cast<double>(value));
}

void add_phase_seconds(MetricsRegistry& reg, std::size_t lane,
                       const char* phase, std::uint64_t ns) {
  reg.add("optipar_phase_seconds_total", MetricsRegistry::Type::kCounter,
          "Wall seconds spent per executor phase, per lane",
          {{"lane", std::to_string(lane)}, {"phase", phase}},
          static_cast<double>(ns) * 1e-9);
}

}  // namespace

void RuntimeTelemetry::export_metrics(MetricsRegistry& reg) const {
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const LaneTelemetry& lane = *lanes_[l];
    add_lane_counter(reg, "optipar_lane_executed_total",
                     "Tasks executed per lane", l, lane.executed);
    add_lane_counter(reg, "optipar_lane_committed_total",
                     "Tasks committed per lane", l, lane.committed);
    add_lane_counter(reg, "optipar_lane_aborted_total",
                     "Tasks aborted per lane (conflicted or faulted)", l,
                     lane.aborted);
    add_lane_counter(reg, "optipar_lane_retried_total",
                     "Faulted tasks requeued with backoff, per executing lane",
                     l, lane.retried);
    add_lane_counter(reg, "optipar_lane_quarantined_total",
                     "Faulted tasks dead-lettered, per executing lane", l,
                     lane.quarantined);
    add_lane_counter(reg, "optipar_lane_lock_failures_total",
                     "Failed abstract-lock acquires (conflicts seen)", l,
                     lane.lock_failures);
  }
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const LaneTelemetry& lane = *lanes_[l];
    add_phase_seconds(reg, l, "draw", lane.draw_ns);
    add_phase_seconds(reg, l, "speculate", lane.exec_ns);
    add_phase_seconds(reg, l, "rollback", lane.rollback_ns);
    add_phase_seconds(reg, l, "commit", lane.commit_ns);
  }

  const TelemetryTotals t = totals();
  std::vector<MetricsRegistry::Bucket> buckets;
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < WorkHistogram::kBuckets; ++b) {
    cumulative += t.work.counts[b];
    const std::uint64_t ub = WorkHistogram::upper_bound(b);
    buckets.push_back({b + 1 == WorkHistogram::kBuckets
                           ? std::string("+Inf")
                           : std::to_string(ub),
                       cumulative});
  }
  reg.add_histogram("optipar_task_items_held",
                    "Abstract locks held per executed task", {},
                    std::move(buckets));

  reg.add("optipar_trace_events_dropped_total",
          MetricsRegistry::Type::kCounter,
          "Trace events lost to ring-buffer overflow (drop-oldest)", {},
          static_cast<double>(total_dropped()));

  // Checkpoint-restored work (DESIGN.md §11): executed by a pre-crash
  // process, so it appears in the executor's cumulative totals but in no
  // lane counter of THIS process. Exported even when zero so the
  // reconciliation invariant (lanes + restored == total) is checkable on
  // every run.
  const auto add_restored = [&reg](const char* name, const char* help,
                                   std::uint64_t value) {
    reg.add(name, MetricsRegistry::Type::kCounter, help, {},
            static_cast<double>(value));
  };
  add_restored("optipar_restored_launched_total",
               "Tasks launched by pre-crash processes (from checkpoint)",
               restored_.launched);
  add_restored("optipar_restored_committed_total",
               "Tasks committed by pre-crash processes (from checkpoint)",
               restored_.committed);
  add_restored("optipar_restored_aborted_total",
               "Tasks aborted by pre-crash processes (from checkpoint)",
               restored_.aborted);
  add_restored("optipar_restored_retried_total",
               "Tasks retried by pre-crash processes (from checkpoint)",
               restored_.retried);
  add_restored("optipar_restored_quarantined_total",
               "Tasks quarantined by pre-crash processes (from checkpoint)",
               restored_.quarantined);

  for (const TimerSet::Entry& e : timers_.snapshot()) {
    reg.add("optipar_scoped_timer_seconds_total",
            MetricsRegistry::Type::kCounter,
            "Named scoped-timer totals (serial phases, estimator, CLI)",
            {{"timer", e.name}}, static_cast<double>(e.total_ns) * 1e-9);
    reg.add("optipar_scoped_timer_spans_total",
            MetricsRegistry::Type::kCounter,
            "Named scoped-timer span counts", {{"timer", e.name}},
            static_cast<double>(e.count));
  }
}

}  // namespace optipar::telemetry
