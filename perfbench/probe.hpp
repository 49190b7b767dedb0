// Outside-in tracing for the traced run: spans recorded by the benchmark
// around each call it makes into a layer, a forwarding Controller that
// spans Controller::observe, and a forwarding TaskOperator that times a
// sample of operator calls. Nothing here reaches inside the program.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "rt/spec_executor.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Spans kept in memory and written once, at exit, as Chrome trace events
/// (the format scripts/check_trace.py checks). All spans come from the
/// benchmark's own thread.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t solve;  // the solve (or setup) the span belongs to
  };

  void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns) {
    spans_.push_back({name, start_ns, end_ns, solve_});
  }
  void set_solve(std::uint32_t solve) { solve_ = solve; }

  /// Durations (ns) of the spans called `name` recorded since `from`.
  [[nodiscard]] std::vector<std::uint64_t> durations(const char* name,
                                                     std::size_t from) const {
    std::vector<std::uint64_t> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      if (spans_[i].name == name) {
        out.push_back(spans_[i].end_ns - spans_[i].start_ns);
      }
    }
    return out;
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Complete ("X") events on one thread, parents before children.
  void write_chrome(const std::string& path) const {
    std::vector<Span> sorted = spans_;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Span& a, const Span& b) {
                       if (a.start_ns != b.start_ns) {
                         return a.start_ns < b.start_ns;
                       }
                       return a.end_ns > b.end_ns;
                     });
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    const std::uint64_t t0 = sorted.empty() ? 0 : sorted.front().start_ns;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const Span& s = sorted[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"solve\":%u}}",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.solve);
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
  }

 private:
  std::vector<Span> spans_;
  std::uint32_t solve_ = 0;
};

/// Forwards every call to the wrapped controller and spans observe().
class TimedController final : public optipar::Controller {
 public:
  TimedController(optipar::Controller& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] std::uint32_t initial_m() const override {
    return inner_.initial_m();
  }
  std::uint32_t observe(const optipar::RoundStats& round) override {
    const std::uint64_t t0 = now_ns();
    const std::uint32_t m = inner_.observe(round);
    log_.add("control.observe", t0, now_ns());
    return m;
  }
  void reset() override { inner_.reset(); }
  void clamp_max(std::uint32_t m_cap) override { inner_.clamp_max(m_cap); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void save_state(optipar::snapshot::Writer& out) const override {
    inner_.save_state(out);
  }
  void load_state(optipar::snapshot::Reader& in) override {
    inner_.load_state(in);
  }
  [[nodiscard]] std::string decision_note() const override {
    return inner_.decision_note();
  }

 private:
  optipar::Controller& inner_;
  SpanLog& log_;
};

/// Wraps a TaskOperator. Every thread counts its own calls; one call in
/// kSampleEvery is timed and classified as committed (returned) or aborted
/// (threw). Only sampled calls pass through the catch-and-rethrow landing
/// pad, which keeps the wrapper's cost small.
class OperatorProbe {
 public:
  static constexpr std::uint64_t kSampleEvery = 16;
  static constexpr std::size_t kMaxThreads = 64;

  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t commit_samples = 0;
    std::uint64_t commit_ns = 0;
    std::uint64_t abort_samples = 0;
    std::uint64_t abort_ns = 0;
    std::uint32_t threads = 0;  // distinct threads that ran operators
  };

  optipar::TaskOperator wrap(optipar::TaskOperator inner) {
    return [this, inner = std::move(inner)](optipar::TaskId task,
                                            optipar::IterationContext& ctx) {
      Slot& s = slot();
      if (++s.calls % kSampleEvery != 0) {
        inner(task, ctx);
        return;
      }
      timed_call(inner, task, ctx, s);
    };
  }

  /// Zero every thread's counters. Call only while no operator runs.
  void reset() {
    for (Slot& s : slots_) s = Slot{};
  }

  [[nodiscard]] Totals totals() const {
    Totals t;
    for (const Slot& s : slots_) {
      t.calls += s.calls;
      t.commit_samples += s.commit_samples;
      t.commit_ns += s.commit_ns;
      t.abort_samples += s.abort_samples;
      t.abort_ns += s.abort_ns;
      t.threads += s.calls > 0 ? 1 : 0;
    }
    return t;
  }

 private:
  struct alignas(64) Slot {
    std::uint64_t calls = 0;
    std::uint64_t commit_samples = 0;
    std::uint64_t commit_ns = 0;
    std::uint64_t abort_samples = 0;
    std::uint64_t abort_ns = 0;
  };

  Slot& slot() {
    thread_local std::size_t index = kMaxThreads;
    if (index == kMaxThreads) {
      index = next_.fetch_add(1, std::memory_order_relaxed);
      if (index >= kMaxThreads) {
        throw std::runtime_error("OperatorProbe: too many threads");
      }
    }
    return slots_[index];
  }

  [[gnu::noinline]] static void timed_call(
      const optipar::TaskOperator& inner, optipar::TaskId task,
      optipar::IterationContext& ctx, Slot& s) {
    const std::uint64_t t0 = now_ns();
    try {
      inner(task, ctx);
    } catch (...) {
      s.abort_ns += now_ns() - t0;
      ++s.abort_samples;
      throw;
    }
    s.commit_ns += now_ns() - t0;
    ++s.commit_samples;
  }

  std::array<Slot, kMaxThreads> slots_{};
  std::atomic<std::size_t> next_{0};
};

}  // namespace perfbench
