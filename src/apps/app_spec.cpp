#include "apps/app_spec.hpp"

#include <numeric>
#include <utility>

#include "support/rng.hpp"

namespace optipar {

std::unique_ptr<SpeculativeExecutor> build_executor(
    ThreadPool& pool, const AppSpec& spec, std::uint64_t seed,
    const RoundOptions& options) {
  auto ex = std::make_unique<SpeculativeExecutor>(pool, spec.items, spec.op,
                                                  seed, options);
  if (options.scheduler == sched::Backend::kChromatic) {
    ex->set_footprint_function(spec.footprint);
  }
  if (options.worklist == WorklistPolicy::kPriority) {
    if (spec.priority) {
      ex->set_priority_function(spec.priority);
    } else {
      ex->set_priority_function([](TaskId t) { return t; });
    }
  }
  ex->push_initial(spec.initial);
  return ex;
}

DrainResult drain(SpeculativeExecutor& executor, const AppSpec& spec,
                  Controller& controller, AdaptiveRunConfig config) {
  config.before_round = spec.before_round;
  AdaptiveRun run(executor, controller, std::move(config));
  while (run.step()) {
  }
  return {run.take_trace(), run.certificate()};
}

std::vector<TaskId> all_tasks(std::size_t n) {
  std::vector<TaskId> tasks(n);
  std::iota(tasks.begin(), tasks.end(), TaskId{0});
  return tasks;
}

sched::FootprintFn closed_neighborhood(const CsrGraph& g) {
  return [&g](TaskId t, std::vector<std::uint32_t>& fp) {
    const auto v = static_cast<NodeId>(t);
    fp.push_back(v);
    for (const NodeId u : g.neighbors(v)) fp.push_back(u);
  };
}

AppSpec lock_only_spec(const CsrGraph& g) {
  AppSpec spec;
  spec.items = g.num_nodes();
  spec.initial = all_tasks(g.num_nodes());
  spec.op = [&g](TaskId t, IterationContext& ctx) {
    const auto v = static_cast<NodeId>(t);
    if (!ctx.acquire(v)) return;
    for (const NodeId u : g.neighbors(v)) {
      if (!ctx.acquire(u)) return;
    }
  };
  spec.footprint = closed_neighborhood(g);
  return spec;
}

std::vector<CellEffect> cell_effects(std::uint64_t seed, std::uint32_t tasks,
                                     std::uint32_t cells) {
  Rng rng(seed);
  std::vector<CellEffect> effects(tasks);
  for (auto& e : effects) {
    e.first = static_cast<std::uint32_t>(rng.below(cells));
    e.count = 1 + static_cast<std::uint32_t>(rng.below(4));
    e.delta = rng.between(-5, 5);
  }
  return effects;
}

AppSpec cell_spec(const std::vector<CellEffect>& effects,
                  std::vector<std::int64_t>& cells) {
  const auto n = static_cast<std::uint32_t>(cells.size());
  AppSpec spec;
  spec.items = n;
  spec.initial = all_tasks(effects.size());
  spec.op = [&effects, &cells, n](TaskId t, IterationContext& ctx) {
    const CellEffect& e = effects[t];
    for (std::uint32_t i = 0; i < e.count; ++i) {
      if (!ctx.acquire((e.first + i) % n)) return;
    }
    for (std::uint32_t i = 0; i < e.count; ++i) {
      cells[(e.first + i) % n] += e.delta;
    }
  };
  spec.footprint = [&effects, n](TaskId t, std::vector<std::uint32_t>& fp) {
    const CellEffect& e = effects[t];
    for (std::uint32_t i = 0; i < e.count; ++i) {
      fp.push_back((e.first + i) % n);
    }
  };
  return spec;
}

std::vector<std::int64_t> cell_oracle(
    const std::vector<CellEffect>& effects, std::size_t cells,
    std::span<const SpeculativeExecutor::DeadLetter> skipped) {
  std::vector<bool> skip(effects.size(), false);
  for (const auto& dl : skipped) skip[dl.task] = true;
  std::vector<std::int64_t> oracle(cells, 0);
  for (std::size_t t = 0; t < effects.size(); ++t) {
    if (skip[t]) continue;
    const CellEffect& e = effects[t];
    for (std::uint32_t i = 0; i < e.count; ++i) {
      oracle[(e.first + i) % cells] += e.delta;
    }
  }
  return oracle;
}

}  // namespace optipar
