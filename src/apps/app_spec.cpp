#include "apps/app_spec.hpp"

#include <numeric>
#include <utility>

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

}  // namespace optipar
