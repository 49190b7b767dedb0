#include "sched/scheduler.hpp"

#include <stdexcept>

#include "sched/chromatic_scheduler.hpp"
#include "sched/random_scheduler.hpp"

namespace optipar::sched {

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kRandom:
      return "random";
    case Backend::kChromatic:
      return "chromatic";
  }
  return "unknown";
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "random") return Backend::kRandom;
  if (name == "chromatic") return Backend::kChromatic;
  return std::nullopt;
}

std::size_t Scheduler::begin_round(std::size_t /*m*/,
                                   std::vector<TaskId>& /*active*/) {
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
  }
  throw std::invalid_argument("make_scheduler: unknown backend");
}

}  // namespace optipar::sched
