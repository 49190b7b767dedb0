// Runtime telemetry (DESIGN.md §10): per-lane counters and histograms,
// per-phase time accumulators, and structured event traces for the
// speculative runtime and the adaptive estimator.
//
// Design constraints, in order:
//   1. Near-free when disabled. Nothing here is ever consulted unless a
//      RuntimeTelemetry object is attached; every instrumentation site in
//      the executor is a single pointer test. Telemetry-off runs are
//      byte-identical to un-instrumented builds (the golden-trace tests pin
//      this) and within noise on perf_micro.
//   2. No cross-lane sharing on the hot path. Each pool lane owns a
//      cache-line-padded LaneTelemetry block (counters, histogram, phase
//      nanoseconds, event ring); lanes never write each other's blocks.
//      Merging happens at round barriers or export time, both serial.
//   3. Deterministic exports. Counter totals are exact sums over lanes and
//      reconcile with the executor's RoundStats; renderings sort names so
//      golden-file tests can pin them.
//
// The event trace extends sim/trace.hpp's StepRecord rather than
// duplicating it: per-round records stay StepRecords (written as JSONL by
// sim/trace.{hpp,cpp}); TraceEvent carries only the *sub-round* happenings
// a StepRecord cannot — controller decisions, retries, quarantines, fault
// firings, lane deaths, degradation transitions.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "support/padded.hpp"
#include "support/timer.hpp"

namespace optipar {

class MetricsRegistry;

namespace telemetry {

class SpanCollector;      // span_trace.hpp
class SpanBuffer;         // span_trace.hpp
class ConflictProfiler;   // conflict_profiler.hpp

/// Render an exception_ptr's message (what(), or a fallback) — shared by
/// the executor's dead-letter records and the trace/metrics error path.
[[nodiscard]] std::string describe_exception(const std::exception_ptr& error);

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Fixed power-of-two-bucket histogram for per-task work (items held,
/// ...). Buckets: v <= 1, <= 2, <= 4, ... <= 128, +inf.
/// POD-fast: recording is one bit-width computation and one increment, so a
/// lane can afford it per task when telemetry is enabled.
struct WorkHistogram {
  static constexpr std::size_t kBuckets = 9;  ///< 1,2,4,...,128, then +inf

  std::array<std::uint64_t, kBuckets> counts{};

  /// Bucket index of value `v` (see class comment for the boundaries).
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v <= 1) return 0;
    const auto w = static_cast<std::size_t>(std::bit_width(v - 1));
    return w < kBuckets - 1 ? w : kBuckets - 1;
  }
  /// Inclusive upper bound of bucket `b` (UINT64_MAX for the last bucket).
  [[nodiscard]] static std::uint64_t upper_bound(std::size_t b) noexcept {
    return b + 1 < kBuckets ? (std::uint64_t{1} << b) : ~std::uint64_t{0};
  }

  void record(std::uint64_t v) noexcept { ++counts[bucket_of(v)]; }

  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (const auto c : counts) t += c;
    return t;
  }

  void merge(const WorkHistogram& other) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) counts[b] += other.counts[b];
  }
};

// ---------------------------------------------------------------------------
// Typed trace events
// ---------------------------------------------------------------------------

enum class EventKind : std::uint32_t {
  kRoundStart,           ///< a = requested m, b = tasks actually taken
  kRoundEnd,             ///< a = launched, b = committed, x = conflict ratio
  kControllerDecision,   ///< a = next m, b = launched, x = r̄, y = r̄ − ρ
  kRetry,                ///< a = task, b = attempt
  kQuarantine,           ///< a = task, b = attempts; note = final error
  kFaultFired,           ///< a/b = injection-point ids; note = site name
  kLaneDeath,            ///< a = lane; note = escaped exception
  kWatchdogDegrade,      ///< a = step the watchdog fired at
  kSerialDegrade,        ///< executor pinned itself to the serial path
  kLivelock,             ///< a = stalled rounds; note = diagnostic
  kError,                ///< a = task/round id; note = first_error text
  kCheckpoint,           ///< a = rounds covered, b = snapshot bytes
  kRecovery,             ///< a = rounds restored, b = journal records kept;
                         ///< note = which rung of the ladder succeeded
  kCertify,              ///< a = verdict (1 ok / 0 fail), b = facts checked,
                         ///< x = seconds; note = certificate code [+ detail]
};

[[nodiscard]] const char* event_kind_name(EventKind kind) noexcept;

struct TraceEvent {
  EventKind kind = EventKind::kRoundStart;
  std::uint32_t lane = 0;   ///< producing lane (or 0 for control events)
  std::uint64_t round = 0;  ///< executor round index (1-based)
  std::uint64_t a = 0;      ///< kind-specific (see EventKind)
  std::uint64_t b = 0;
  double x = 0.0;
  double y = 0.0;
  std::string note;  ///< optional human detail (error text, site name)
};

/// Write events as JSONL, one `{"type":"event",...}` object per line.
/// Fields are stable and the `note` is JSON-escaped; consumers pair these
/// with the `{"type":"round",...}` lines sim/trace.hpp emits.
void write_events_jsonl(std::ostream& os, std::span<const TraceEvent> events);

/// Per-lane single-producer event ring with a drop-oldest overflow policy.
/// The producing lane pushes during the round; draining happens only at
/// round boundaries / export time, when lanes have quiesced — so the ring
/// needs no consumer-side synchronization, only the drop accounting.
class EventRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).
  explicit EventRing(std::size_t capacity = 1024);

  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// Append; when full the OLDEST event is dropped (and counted) — recent
  /// history is worth more than ancient history in a post-mortem.
  void push(TraceEvent event) noexcept;

  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Move the buffered events (oldest first) into `out`; empties the ring.
  void drain(std::vector<TraceEvent>& out);

 private:
  std::vector<TraceEvent> buf_;
  std::uint64_t mask_;
  std::atomic<std::uint64_t> head_{0};  ///< next write position
  std::atomic<std::uint64_t> tail_{0};  ///< oldest retained event
  std::atomic<std::uint64_t> dropped_{0};
};

// ---------------------------------------------------------------------------
// Per-lane state
// ---------------------------------------------------------------------------

/// One pool lane's counters, phase clocks, histogram, and event ring.
/// Cache-line padded: lanes bump their own block with plain (non-atomic)
/// increments and never touch a neighbor's line.
struct alignas(kCacheLine) LaneTelemetry {
  explicit LaneTelemetry(std::size_t ring_capacity) : ring(ring_capacity) {}

  // Task outcomes, attributed to the lane that EXECUTED the task (commit is
  // decided at execute time; retry/quarantine are serial-tail decisions
  // attributed back via the executing-lane stamp).
  std::uint64_t executed = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;  ///< includes conflicted AND faulted tasks
  std::uint64_t retried = 0;
  std::uint64_t quarantined = 0;

  // Lock-layer observations (item_lock).
  std::uint64_t lock_failures = 0;  ///< failed item acquires (conflicts)

  // Per-phase nanoseconds spent by this lane.
  std::uint64_t draw_ns = 0;      ///< shard pops / steals
  std::uint64_t exec_ns = 0;      ///< operator execution + commit decision
  std::uint64_t rollback_ns = 0;  ///< aborted tasks' lock release (in exec)
  std::uint64_t commit_ns = 0;    ///< round end: hold-list release, splice

  WorkHistogram work;  ///< items held per executed task

  EventRing ring;

  // Optional deep-observability sinks, wired by RuntimeTelemetry when a
  // SpanCollector / ConflictProfiler is attached. nullptr (the default)
  // keeps every extra site a single pointer test, so the span-off /
  // profiler-off telemetry path pays nothing new (PR 4 overhead sentinel).
  SpanBuffer* spans = nullptr;      ///< this lane's span sink (DESIGN.md §15)
  ConflictProfiler* prof = nullptr; ///< per-item conflict attribution
};

// ---------------------------------------------------------------------------
// RuntimeTelemetry — the attachable sink
// ---------------------------------------------------------------------------

struct TelemetryConfig {
  std::size_t ring_capacity = 1024;  ///< per-lane AND control-stream rings
  double target_rho = 0.0;  ///< ρ for decision events' rho-error (0 = unset)
};

/// Aggregated counter view (exact sums over lanes).
struct TelemetryTotals {
  std::uint64_t executed = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t retried = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t lock_failures = 0;
  std::uint64_t dropped_events = 0;
  WorkHistogram work;
};

/// Named scoped-timer accumulators (serial phases, estimator sweeps, CLI
/// stages). Registration takes a mutex; accumulation is lock-free — cache
/// the TimerAccumulator* once per attach, not per use.
class TimerSet {
 public:
  /// Get-or-create the accumulator named `name`. The reference is stable
  /// for the TimerSet's lifetime.
  [[nodiscard]] TimerAccumulator& at(const std::string& name);

  struct Entry {
    std::string name;
    std::uint64_t total_ns = 0;
    std::uint64_t count = 0;
  };
  /// Snapshot sorted by name (deterministic export order).
  [[nodiscard]] std::vector<Entry> snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<TimerAccumulator>> named_;
};

/// The attachable telemetry sink. One instance serves one executor (or one
/// estimator run); lifetime must cover every round it is attached for.
class RuntimeTelemetry {
 public:
  explicit RuntimeTelemetry(TelemetryConfig config = {});

  RuntimeTelemetry(const RuntimeTelemetry&) = delete;
  RuntimeTelemetry& operator=(const RuntimeTelemetry&) = delete;

  [[nodiscard]] const TelemetryConfig& config() const noexcept {
    return config_;
  }
  void set_target_rho(double rho) noexcept { config_.target_rho = rho; }
  [[nodiscard]] double target_rho() const noexcept {
    return config_.target_rho;
  }

  /// Grow to at least `n` lanes. Serial-context only (between rounds);
  /// existing LaneTelemetry addresses are stable across growth.
  void ensure_lanes(std::size_t n);
  [[nodiscard]] std::size_t lane_count() const noexcept {
    return lanes_.size();
  }
  /// Lane `i`'s block; `i < lane_count()`. The lane itself writes plain
  /// fields; other threads may only read after a quiescent point.
  [[nodiscard]] LaneTelemetry& lane(std::size_t i) { return *lanes_[i]; }
  [[nodiscard]] const LaneTelemetry& lane(std::size_t i) const {
    return *lanes_[i];
  }

  /// Thread-safe push to the control event stream (controller decisions,
  /// degradations, fault firings). Mutex-guarded — control events are rare
  /// by construction, so contention is not a concern.
  void emit(TraceEvent event);

  [[nodiscard]] TimerSet& timers() noexcept { return timers_; }
  [[nodiscard]] const TimerSet& timers() const noexcept { return timers_; }

  /// Attach a span collector (nullptr detaches). Serial-context only.
  /// Existing and future lanes get their SpanBuffer pointer wired so the
  /// executor reaches spans through the LaneTelemetry it already holds.
  void set_spans(SpanCollector* spans);
  [[nodiscard]] SpanCollector* spans() const noexcept { return spans_; }

  /// Attach a conflict-attribution profiler (nullptr detaches).
  /// Serial-context only; same lane-pointer wiring as set_spans.
  void set_profiler(ConflictProfiler* profiler);
  [[nodiscard]] ConflictProfiler* profiler() const noexcept {
    return profiler_;
  }

  /// Drain every ring (all lanes + control stream) into one list, stably
  /// sorted by round so JSONL output reads chronologically. Serial-context
  /// only.
  [[nodiscard]] std::vector<TraceEvent> drain_events();

  /// Exact sums of the per-lane counters (serial-context only).
  [[nodiscard]] TelemetryTotals totals() const;

  /// Events dropped across every ring (lanes + control).
  [[nodiscard]] std::uint64_t total_dropped() const;

  /// Render counters, per-lane breakdowns, phase times, histograms, and
  /// named timers into `registry` under the `optipar_` namespace.
  void export_metrics(MetricsRegistry& registry) const;

  /// Work restored from a checkpoint rather than executed by this
  /// process's lanes (DESIGN.md §11). A resumed run's executor totals
  /// include the pre-crash rounds, so the reconciliation invariant becomes
  /// sum(lanes) + restored == executor total; checkpoint restore records
  /// the snapshot's cumulative totals here.
  struct RestoredBaseline {
    std::uint64_t launched = 0;
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t retried = 0;
    std::uint64_t quarantined = 0;
  };
  void set_restored_baseline(const RestoredBaseline& baseline) noexcept {
    restored_ = baseline;
  }
  [[nodiscard]] const RestoredBaseline& restored_baseline() const noexcept {
    return restored_;
  }

 private:
  TelemetryConfig config_;
  std::vector<std::unique_ptr<LaneTelemetry>> lanes_;
  EventRing control_;
  std::mutex control_mutex_;
  TimerSet timers_;
  RestoredBaseline restored_;
  SpanCollector* spans_ = nullptr;        ///< non-owning; nullptr = off
  ConflictProfiler* profiler_ = nullptr;  ///< non-owning; nullptr = off

  void wire_lane_sinks();
};

}  // namespace telemetry
}  // namespace optipar
