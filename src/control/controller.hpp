// Controller interface for the processor-allocation problem (§4): after
// each optimistic round the scheduler reports what happened, and the
// controller chooses how many tasks m_{t+1} to launch next. The same
// interface drives both the discrete-step CC-graph simulator (src/sim/) and
// the real speculative runtime (src/rt/), so controller behavior can be
// studied in the paper's model and then exercised on real irregular
// workloads without modification.
#pragma once

#include <cstdint>
#include <exception>
#include <string>

namespace optipar {

namespace snapshot {
class Writer;
class Reader;
}  // namespace snapshot

/// What one optimistic round observed. launched == committed + aborted.
/// The failure-handling fields (DESIGN.md §8) are zero in fault-free runs:
/// retried/quarantined count tasks whose operator threw a real,
/// non-AbortIteration exception, and first_error preserves the first
/// such exception of the round so it is never silently dropped — even when
/// a FailurePolicy absorbs it instead of rethrowing.
struct RoundStats {
  std::uint32_t launched = 0;
  std::uint32_t committed = 0;
  std::uint32_t aborted = 0;
  std::uint32_t retried = 0;      ///< faulted tasks requeued with backoff
  std::uint32_t quarantined = 0;  ///< faulted tasks dead-lettered this round
  std::uint32_t injected = 0;     ///< faults the injector fired this round
  std::exception_ptr first_error; ///< first operator or lane error

  [[nodiscard]] double conflict_ratio() const noexcept {
    return launched == 0
               ? 0.0
               : static_cast<double>(aborted) / static_cast<double>(launched);
  }
};

/// Tunables of Algorithm 1, with the paper's published defaults, plus the
/// small-m regime parameters the paper mentions but leaves out of the
/// pseudo-code ("tune separately this case using different parameters";
/// Fig. 3 caption: "different parameters for m greater or smaller than 20").
struct ControllerParams {
  double rho = 0.25;          ///< target conflict ratio ρ (20–30% reasonable)
  std::uint32_t m0 = 2;       ///< initial allocation
  std::uint32_t m_min = 2;    ///< Remark 1: never below 2
  std::uint32_t m_max = 1024; ///< processor budget
  std::uint32_t T = 4;        ///< averaging window (rounds)
  double r_min = 0.03;        ///< clamp for Recurrence B's divisor
  double alpha0 = 0.25;       ///< |1 − r/ρ| above this → Recurrence B
  double alpha1 = 0.06;       ///< dead band; below this → no change
  // Small-m regime: below m_small the observed r has much higher variance,
  // so average longer and require a larger deviation before acting.
  bool small_m_regime = true;
  std::uint32_t m_small = 20;
  std::uint32_t T_small = 8;
  double alpha1_small = 0.12;

  /// Clamp an m proposal into [m_min, m_max].
  [[nodiscard]] std::uint32_t clamp(std::uint64_t m) const noexcept {
    if (m < m_min) return m_min;
    if (m > m_max) return m_max;
    return static_cast<std::uint32_t>(m);
  }
};

/// Abstract allocation policy. Implementations are deterministic given the
/// observation stream — all randomness lives in the workload.
class Controller {
 public:
  virtual ~Controller() = default;

  /// m_0, before any observation.
  [[nodiscard]] virtual std::uint32_t initial_m() const = 0;

  /// Report round t's outcome; returns m_{t+1}.
  virtual std::uint32_t observe(const RoundStats& round) = 0;

  /// Forget all state (back to m_0).
  virtual void reset() = 0;

  /// Externally cap future proposals at `m_cap` — the livelock watchdog's
  /// degradation hook (DESIGN.md §8). run_adaptive enforces the cap on the
  /// applied allocation regardless; overriding lets a stateful controller
  /// also clamp its internal state (e.g. shrink m_max) so its recurrences
  /// stop proposing allocations the runtime will refuse. Default: no-op.
  virtual void clamp_max(std::uint32_t m_cap) { (void)m_cap; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Checkpoint hooks (DESIGN.md §11): serialize every field observe()
  /// depends on into `out`, and restore it from `in`, so that a controller
  /// reloaded mid-run proposes the exact allocation sequence the
  /// uninterrupted run would have. Stateless controllers keep the defaults
  /// (nothing written, nothing read); stateful implementations must
  /// override BOTH or neither — the checkpoint layer frames the blob and
  /// verifies the controller's name(), so a partial override surfaces as a
  /// typed restore error, never a silently diverging run.
  virtual void save_state(snapshot::Writer& /*out*/) const {}
  virtual void load_state(snapshot::Reader& /*in*/) {}

  /// Short diagnostic of the LAST observe() decision, consumed by the
  /// telemetry layer's controller-decision events (DESIGN.md §10) — e.g.
  /// which recurrence branch fired. Purely observational: implementations
  /// must not let it affect control behavior. Default: nothing to report.
  [[nodiscard]] virtual std::string decision_note() const { return {}; }
};

}  // namespace optipar
