#include "sched/scheduler.hpp"

#include <stdexcept>

#include "sched/chromatic_scheduler.hpp"
#include "sched/random_scheduler.hpp"
#include "sched/relaxed_scheduler.hpp"

namespace optipar::sched {

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kRandom:
      return "random";
    case Backend::kChromatic:
      return "chromatic";
    case Backend::kRelaxed:
      return "relaxed";
  }
  return "unknown";
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "random") return Backend::kRandom;
  if (name == "chromatic") return Backend::kChromatic;
  if (name == "relaxed") return Backend::kRelaxed;
  return std::nullopt;
}

std::size_t Scheduler::begin_round(std::size_t /*m*/,
                                   std::vector<TaskId>& /*active*/,
                                   Rng& /*rng*/) {
  throw std::logic_error("Scheduler: begin_round on a distributed backend");
}

void Scheduler::draw_span(std::size_t /*lane*/, Rng& /*rng*/, TaskId* /*out*/,
                          std::size_t /*n*/) {
  throw std::logic_error("Scheduler: draw_span on a centralized backend");
}

std::unique_ptr<Scheduler> make_scheduler(Backend backend,
                                          const SchedulerConfig& config) {
  switch (backend) {
    case Backend::kRandom:
      return std::make_unique<RandomScheduler>(config.worklist,
                                               config.shard_count);
    case Backend::kChromatic:
      return std::make_unique<ChromaticScheduler>(config.seed);
    case Backend::kRelaxed:
      return std::make_unique<RelaxedScheduler>(config.seed,
                                                config.shard_count);
  }
  throw std::invalid_argument("make_scheduler: unknown backend");
}

}  // namespace optipar::sched
