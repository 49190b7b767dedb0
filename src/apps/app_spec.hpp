// One value per application kernel (DESIGN.md §14): everything a host
// needs to run an app on the speculative executor. Each app module builds
// its spec with make_spec(...) next to its operator, so the footprint the
// chromatic backend colors by is declared beside the code that acquires
// it. build_executor() and drain() are the only code that wires a spec to
// the executor; AppJob (apps/job.hpp) — behind the CLI, serve and the
// certified harness — the benches, the examples and the tests all go
// through them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "control/controller.hpp"
#include "graph/csr_graph.hpp"
#include "rt/adaptive_executor.hpp"
#include "rt/spec_executor.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace.hpp"
#include "support/thread_pool.hpp"

namespace optipar {

struct AppSpec {
  /// Lock-table size; a before_round hook may grow it between rounds.
  std::size_t items = 0;
  /// The initial work-set, pushed by build_executor.
  std::vector<TaskId> initial;
  TaskOperator op;
  /// Every item `op` may acquire for a task, computed from the state the
  /// task will run against: a superset of what it acquires. The chromatic
  /// backend colors pending tasks by it.
  sched::FootprintFn footprint;
  /// Draw priority (smaller = sooner) for the kPriority worklist. Empty
  /// means the task id.
  std::function<std::uint64_t(TaskId)> priority;
  /// Runs before every round (lock-table growth, schedule invalidation,
  /// periodic global relabel). Empty means none.
  std::function<void(SpeculativeExecutor&)> before_round;
};

/// An executor for `spec` under `options`, ready to run: the footprint is
/// installed on the chromatic backend, the priority on the kPriority
/// worklist, and spec.initial is pushed.
[[nodiscard]] std::unique_ptr<SpeculativeExecutor> build_executor(
    ThreadPool& pool, const AppSpec& spec, std::uint64_t seed,
    const RoundOptions& options = {});

struct DrainResult {
  Trace trace;
  /// Set when `config` carried a certifier.
  std::optional<verify::Certificate> certificate;
};

/// Step `executor` (built from `spec`) under AdaptiveRun until it drains or
/// hits config.max_rounds. The spec's hook replaces config.before_round.
/// LivelockError and JobInterrupted propagate with their partial traces.
DrainResult drain(SpeculativeExecutor& executor, const AppSpec& spec,
                  Controller& controller, AdaptiveRunConfig config = {});

/// Tasks 0..n-1: the initial work-set of every per-node app.
[[nodiscard]] std::vector<TaskId> all_tasks(std::size_t n);

/// Footprint of a task that acquires node v and all of N(v).
[[nodiscard]] sched::FootprintFn closed_neighborhood(const CsrGraph& g);

/// The lock-only workload behind `optipar_cli run|profile|metrics` and
/// serve jobs: one task per node that acquires its closed neighbourhood
/// and writes nothing, so two tasks conflict iff their nodes are adjacent
/// (the paper's CC graph).
[[nodiscard]] AppSpec lock_only_spec(const CsrGraph& g);

/// One task of the cell workload behind `optipar_cli chaos` and the
/// executor's chaos tests: it adds `delta` to `count` consecutive cells
/// (modulo the cell count) starting at `first`.
struct CellEffect {
  std::uint32_t first = 0;
  std::uint32_t count = 1;
  std::int64_t delta = 1;
};

/// `tasks` effects over `cells` cells, drawn from `seed`.
[[nodiscard]] std::vector<CellEffect> cell_effects(std::uint64_t seed,
                                                   std::uint32_t tasks,
                                                   std::uint32_t cells);

/// The cell workload over `cells` (its size is the cell count), one task
/// per effect: a task locks its cells in order, then adds its delta to
/// each. Both vectors must outlive the spec.
[[nodiscard]] AppSpec cell_spec(const std::vector<CellEffect>& effects,
                                std::vector<std::int64_t>& cells);

/// The sequential oracle: `cells` cells after every task except the
/// `skipped` ones (the quarantined tasks) ran once.
[[nodiscard]] std::vector<std::int64_t> cell_oracle(
    const std::vector<CellEffect>& effects, std::size_t cells,
    std::span<const SpeculativeExecutor::DeadLetter> skipped = {});

}  // namespace optipar
