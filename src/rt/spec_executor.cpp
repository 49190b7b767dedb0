#include "rt/spec_executor.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sched/chromatic_scheduler.hpp"
#include "support/barrier.hpp"
#include "support/cpu.hpp"
#include "support/snapshot/snapshot.hpp"
#include "support/telemetry/conflict_profiler.hpp"
#include "support/telemetry/span_trace.hpp"
#include "support/telemetry/telemetry.hpp"

namespace optipar {

namespace {
// Tickets (slots) are claimed in chunks so that lanes draw several tasks
// under one shard lock and touch the shared cursors rarely. A single lane
// claims every chunk in order, so the chunked draw replays the centralized
// draw sequence exactly.
constexpr std::size_t kDrawChunk = 16;
constexpr std::size_t kFinalizeChunk = 64;

// Phase clocks sample every N-th chunk (power of two; chunk 0 always
// sampled, so single-chunk rounds are timed exactly) and scale the tick
// totals up to the chunk population at flush time. Even a raw cycle read
// costs ~20ns on virtualized hosts, so timing every chunk would by itself
// consume the telemetry layer's enabled-overhead budget (DESIGN.md §10).
constexpr std::uint64_t kPhaseSamplePeriod = 8;
static_assert((kPhaseSamplePeriod & (kPhaseSamplePeriod - 1)) == 0);

// Sentinel marking a ticket whose task was never drawn (hardened rounds
// only): after a pool-lane death the salvage pass must distinguish "task
// still in its shard" from "task drawn but never executed".
constexpr TaskId kNoTask = ~TaskId{0};

// With several lanes the chunk must shrink as the round does: a task that
// blocks mid-operator (a slow operator, or a test choreography) stalls the
// rest of its lane's chunk, so small rounds need the seed's grain-1
// interleaving where every other slot can proceed on another lane.
std::size_t draw_chunk(std::size_t take, std::size_t lanes) {
  if (lanes <= 1) return kDrawChunk;
  return std::max<std::size_t>(
      1, std::min<std::size_t>(kDrawChunk, take / (lanes * 2)));
}

// Snapshot shape-header value of the conflict rule. Abort-self (0) is the
// only rule left; 1 was priority-wins and stays reserved, so a snapshot
// that carries it is refused instead of resumed under different semantics.
constexpr std::uint8_t kAbortSelfArbitration = 0;

}  // namespace

void IterationContext::count_conflict(std::uint32_t item) noexcept {
  ++tlm_->lock_failures;
  // Conflict attribution: this item is what killed (or will kill) the
  // speculative task — the profiler's per-item counter is the spatial
  // resolution of the conflict ratio.
  if (tlm_->prof != nullptr) tlm_->prof->on_conflict(item);
}

void IterationContext::release_all() {
  if (unsync_) {
    for (const std::uint32_t item : held_) {
      locks_.release_relaxed(item, iter_id_);
    }
  } else {
    for (const std::uint32_t item : held_) locks_.release(item, iter_id_);
  }
  held_.clear();
}

SpeculativeExecutor::SpeculativeExecutor(ThreadPool& pool, std::size_t items,
                                         TaskOperator op, std::uint64_t seed,
                                         const RoundOptions& options)
    : pool_(pool), locks_(items), op_(std::move(op)), rng_(seed),
      policy_wl_(options.worklist),
      shard_count_(std::max<std::size_t>(1, pool.size())),
      backoff_seed_(seed ^ 0x6c62272e07bb0142ULL) {
  if (options.scheduler != sched::Backend::kRandom &&
      options.worklist != WorklistPolicy::kRandom) {
    throw std::invalid_argument(
        "SpeculativeExecutor: worklist policies are a random-backend draw "
        "knob; the chromatic backend requires the default worklist");
  }
  sched::SchedulerConfig config;
  config.worklist = options.worklist;
  config.shard_count = shard_count_;
  config.seed = seed;
  sched_ = sched::make_scheduler(options.scheduler, config);
  sched_->set_error_sink([this] { record_round_error(); });
  // Helper lanes get independent draw streams derived from the seed with a
  // PRF — NOT splits of rng_, whose state must stay byte-identical to a
  // single-lane executor's until the first draw.
  SplitMix64 sm(seed ^ 0xa02bdbf7bb3c0a7dULL);
  helper_rngs_.reserve(shard_count_ - 1);
  for (std::size_t l = 1; l < shard_count_; ++l) {
    helper_rngs_.emplace_back(sm.next());
  }
}

void SpeculativeExecutor::set_telemetry(telemetry::RuntimeTelemetry* sink) {
  telemetry_ = sink;
  if (sink != nullptr) {
    // Resolve the named accumulators once — the per-round ScopedTimer then
    // costs two clock reads, no map lookups. Calibrating the tick clock
    // here keeps its one-time spin out of the first timed chunk.
    static_cast<void>(phase_ns_per_tick());
    acc_round_ = &sink->timers().at("executor.round");
    acc_salvage_ = &sink->timers().at("executor.salvage");
  } else {
    acc_round_ = nullptr;
    acc_salvage_ = nullptr;
  }
}

void SpeculativeExecutor::push_initial(std::span<const TaskId> tasks) {
  sched_->push(tasks);
}

void SpeculativeExecutor::set_priority_function(
    std::function<std::uint64_t(TaskId)> fn) {
  sched_->set_priority_function(std::move(fn));
}

void SpeculativeExecutor::set_footprint_function(sched::FootprintFn fn) {
  auto* chromatic = dynamic_cast<sched::ChromaticScheduler*>(sched_.get());
  if (chromatic == nullptr) {
    throw std::logic_error(
        "SpeculativeExecutor: set_footprint_function requires the "
        "chromatic scheduler backend");
  }
  chromatic->set_footprint_function(std::move(fn));
}

void SpeculativeExecutor::invalidate_schedule() {
  if (auto* chromatic =
          dynamic_cast<sched::ChromaticScheduler*>(sched_.get())) {
    chromatic->invalidate_pending();
  }
}

std::size_t SpeculativeExecutor::pending() const {
  return deferred_.size() + sched_->size();
}

void SpeculativeExecutor::record_round_error() noexcept {
  const std::lock_guard lock(round_error_mutex_);
  if (!round_error_) round_error_ = std::current_exception();
}

std::uint32_t SpeculativeExecutor::attempt_of(TaskId task) const noexcept {
  if (failure_attempts_.empty()) return 1;
  const auto it = failure_attempts_.find(task);
  return it == failure_attempts_.end() ? 1 : it->second + 1;
}

std::uint64_t SpeculativeExecutor::backoff_rounds(
    TaskId task, std::uint32_t attempt) const {
  const FailurePolicy& fp = *policy_;
  const std::uint64_t base =
      std::max<std::uint64_t>(1, fp.backoff_base_rounds);
  const std::uint64_t cap = std::max<std::uint64_t>(base,
                                                    fp.backoff_cap_rounds);
  // Decorrelated jitter over an exponential envelope: attempt k waits a
  // uniform number of rounds in [base, min(cap, base·3^(k-1))], with the
  // jitter drawn from a PRF over (seed, task, attempt) so replays match.
  std::uint64_t envelope = base;
  for (std::uint32_t k = 1; k < attempt && envelope < cap; ++k) {
    envelope = std::min(cap, envelope * 3);
  }
  if (envelope <= base) return base;
  SplitMix64 sm(backoff_seed_ ^ (task * 0x9e3779b97f4a7c15ULL) ^ attempt);
  return base + sm.next() % (envelope - base + 1);
}

void SpeculativeExecutor::release_due_deferred() {
  if (deferred_.empty()) return;
  const auto due_end = std::partition(
      deferred_.begin(), deferred_.end(),
      [&](const Deferred& d) { return d.due_round <= round_index_; });
  if (due_end == deferred_.begin()) return;
  // Reinsertion order is pinned to (due_round, task) so chaos runs with a
  // fixed fault seed replay the same worklist evolution.
  std::sort(deferred_.begin(), due_end,
            [](const Deferred& a, const Deferred& b) {
              return a.due_round != b.due_round ? a.due_round < b.due_round
                                                : a.task < b.task;
            });
  std::vector<TaskId> due;
  due.reserve(static_cast<std::size_t>(due_end - deferred_.begin()));
  for (auto it = deferred_.begin(); it != due_end; ++it) {
    due.push_back(it->task);
  }
  deferred_.erase(deferred_.begin(), due_end);
  push_initial(due);
}

void SpeculativeExecutor::requeue_tasks(std::span<const TaskId> tasks) {
  // Serial-tail reinsertion. The backend must never drop a task: priority
  // or footprint failures degrade inside the scheduler and surface through
  // the error sink (record_round_error).
  sched_->requeue(tasks);
}

void SpeculativeExecutor::process_faulted_slots(
    RoundStats& stats, std::vector<std::size_t>& slots) {
  if (slots.empty()) return;
  const FailurePolicy& fp = *policy_;
  for (const std::size_t slot : slots) {
    const TaskId task = active_[slot];
    IterationContext& ctx = *arena_[slot];
    const std::exception_ptr error =
        ctx.fault_ ? ctx.fault_ : ctx.rollback_fault_;
    if (!stats.first_error) stats.first_error = error;
    // Retry/quarantine is decided serially, but attributed back to the lane
    // that executed the attempt (slot_lane_ stamp). Lanes are quiescent
    // here, so pushing into a lane ring from the serial tail is safe.
    telemetry::LaneTelemetry* tlane = nullptr;
    if (telemetry_ != nullptr && slot < slot_lane_.size()) {
      tlane = &telemetry_->lane(slot_lane_[slot]);
    }
    const std::uint32_t attempts = ++failure_attempts_[task];
    if (attempts <= fp.max_retries) {
      ++stats.retried;
      deferred_.push_back(
          {round_index_ + backoff_rounds(task, attempts), task});
      if (tlane != nullptr) {
        ++tlane->retried;
        tlane->ring.push({telemetry::EventKind::kRetry,
                          slot_lane_[slot], round_index_, task, attempts,
                          0.0, 0.0, {}});
      }
    } else {
      ++stats.quarantined;
      dead_letters_.push_back(
          {task, attempts, telemetry::describe_exception(error)});
      failure_attempts_.erase(task);
      if (tlane != nullptr) {
        ++tlane->quarantined;
        tlane->ring.push({telemetry::EventKind::kQuarantine,
                          slot_lane_[slot], round_index_, task, attempts,
                          0.0, 0.0, dead_letters_.back().error});
      }
    }
  }
}

void SpeculativeExecutor::salvage_round(
    RoundStats& stats, std::size_t take, std::size_t lanes,
    std::vector<std::size_t>& faulted_slots) {
  // A lane died (exception escaped the lane body — not a task operator).
  // The surviving lanes already finalized every stamped slot the cursor
  // handed them; what remains is bounded and done serially here: slots the
  // dead lane claimed but never executed, slots executed but never
  // finalized (a lane died mid-epilogue), requeue buffers never spliced,
  // and a from-scratch recount of launched/committed (a dead lane's local
  // commit counter is lost).
  const bool absorbing = absorbs_faults();
  const bool active_valid = round_hardened_ || sched_->centralized();
  std::vector<TaskId> salvage_requeue;
  std::uint32_t launched = 0;
  std::uint32_t committed = 0;
  for (std::size_t slot = 0; slot < take; ++slot) {
    IterationContext& ctx = *arena_[slot];
    if (slot_executed_[slot] != round_index_) {
      // Ticket never redeemed. If the task was already drawn, return it to
      // the work-set; a sentinel means it never left its shard.
      if (active_valid && active_[slot] != kNoTask) {
        salvage_requeue.push_back(active_[slot]);
      }
      continue;
    }
    ++launched;
    const bool is_committed = ctx.committed_;
    if (is_committed) ++committed;
    if (slot_finalized_[slot] == round_index_) continue;
    // Finalize serially what the dead lane left behind.
    if (is_committed) {
      ctx.undo_.discard();
      salvage_requeue.insert(salvage_requeue.end(), ctx.pushed_.begin(),
                             ctx.pushed_.end());
      ctx.release_all();
    } else if (absorbing && (ctx.fault_ || ctx.rollback_fault_)) {
      faulted_slots.push_back(slot);
    } else {
      salvage_requeue.push_back(active_[slot]);
    }
    slot_finalized_[slot] = round_index_;
  }
  stats.launched = launched;
  stats.committed = committed;
  // Dead lanes may have buffered requeues without splicing them (buffers
  // are cleared after a successful splice, so leftovers are unspliced).
  for (std::size_t l = 0; l < lanes; ++l) {
    auto& requeue = lane_requeue_[l].value;
    if (!requeue.empty()) {
      salvage_requeue.insert(salvage_requeue.end(), requeue.begin(),
                             requeue.end());
      requeue.clear();
    }
  }
  requeue_tasks(salvage_requeue);
}

template <bool kSerial>
void SpeculativeExecutor::round_lane(std::size_t lane, const RoundPlan& plan,
                                     SpinBarrier* barrier) {
  Rng& rng = lane == 0 ? rng_ : helper_rngs_[lane - 1];
  // Single-lane fast path: shared cursors degrade to plain locals (no
  // atomic RMW per chunk) — claim order is identical by construction.
  std::size_t serial_draw = 0;
  std::size_t serial_finalize = 0;
  // Lane-private telemetry block (cache-line padded; no atomics on the
  // counting path). nullptr when detached — every site below is then a
  // single predictable branch. Phase clocks are raw cycle-counter reads
  // (phase_ticks) on SAMPLED chunks only (kPhaseSamplePeriod), with one
  // timestamp carried across the draw->exec boundary inside a sampled
  // chunk; tick totals and task outcomes accumulate in locals and flush
  // to the lane block once per round — the enabled-overhead budget
  // (DESIGN.md §10) depends on all three.
  telemetry::LaneTelemetry* const tlane =
      telemetry_ != nullptr
          ? &telemetry_->lane(lane)
          : nullptr;
  // Span sink (nullptr unless a SpanCollector is attached): sampled chunks
  // additionally record wall-clock draw/exec spans into the lane's
  // single-producer buffer. Span mode is explicit opt-in (--trace-chrome),
  // so its extra monotonic_ns reads are outside the enabled-overhead
  // budget the sentinel holds plain telemetry to.
  telemetry::SpanBuffer* const sbuf =
      tlane != nullptr ? tlane->spans : nullptr;
  const std::uint32_t span_tid = static_cast<std::uint32_t>(lane) + 1;
  std::uint64_t phase_t = 0;
  std::uint64_t draw_ticks = 0;
  std::uint64_t exec_ticks = 0;
  std::uint64_t rollback_ticks = 0;
  std::uint64_t chunks_seen = 0;
  std::uint64_t lane_executed = 0;
  std::uint64_t lane_committed = 0;
  std::uint64_t lane_aborted = 0;
  // --- Speculative phase: draw and execute in ticket chunks. ----------
  // The phase-level catch turns a dying lane into a recorded pool fault
  // instead of a wedged barrier: the lane still arrives below, and the
  // serial tail salvages whatever it left behind.
  try {
    for (;;) {
      if (plan.inject_lane_faults) {
        injector_->maybe_throw(FaultSite::kPoolLane, round_index_, lane);
      }
      std::size_t begin;
      if constexpr (kSerial) {
        begin = serial_draw;
        serial_draw += plan.chunk;
      } else {
        begin = draw_cursor_.fetch_add(plan.chunk,
                                       std::memory_order_relaxed);
      }
      if (begin >= plan.take) break;
      const std::size_t end = std::min(plan.take, begin + plan.chunk);
      const bool timed =
          tlane != nullptr &&
          (chunks_seen++ & (kPhaseSamplePeriod - 1)) == 0;
      const bool spanned = timed && sbuf != nullptr;
      std::uint64_t span_t = spanned ? monotonic_ns() : 0;
      if (timed) phase_t = phase_ticks();
      if (!plan.centralized) {
        sched_->draw_span(lane, rng, active_.data() + begin, end - begin);
        if (timed) {
          const std::uint64_t now = phase_ticks();
          draw_ticks += now - phase_t;
          phase_t = now;
          if (spanned) {
            const std::uint64_t wall = monotonic_ns();
            sbuf->push({"draw", span_tid, span_t, wall, round_index_,
                        end - begin, false, {}});
            span_t = wall;
          }
        }
      }
      // Lane stamps are written per chunk — one vectorized fill
      // instead of a store interleaved into every task; every slot in
      // [begin, end) executes on this lane (or dies with it and is
      // salvaged serially). Their only consumer is the serial tail's
      // retry/quarantine attribution (process_faulted_slots), which can
      // only see work when fault absorption is on — so plain rounds
      // skip the stamping entirely.
      if (tlane != nullptr && plan.absorbing) {
        std::fill(slot_lane_.begin() + static_cast<std::ptrdiff_t>(begin),
                  slot_lane_.begin() + static_cast<std::ptrdiff_t>(end),
                  static_cast<std::uint32_t>(lane));
      }
      for (std::size_t slot = begin; slot < end; ++slot) {
        const TaskId task = active_[slot];
        IterationContext& ctx = *arena_[slot];
        // The slot is the owner tag: unique within the round, and every
        // lock is free again before the next round reuses it.
        ctx.reset(static_cast<std::uint32_t>(slot));
        ctx.unsync_ = kSerial;  // relaxed lock ops; no peers exist
        ctx.injector_ = injector_;
        ctx.launch_ = (round_index_ << 32) | slot;
        if (tlane != nullptr) {
          ctx.tlm_ = tlane;  // routes lock-failure counts to this lane
        }
        const std::uint32_t attempt = attempt_of(task);
        if (injector_ != nullptr &&
            injector_->should_fire(FaultSite::kRollbackInverse, task,
                                   attempt)) {
          // Injection site: an undo inverse that throws. Recorded first
          // so it runs LAST in the unwind — the two-phase rollback must
          // still run every real inverse before surfacing the error.
          FaultInjector* inj = injector_;
          ctx.on_abort([inj, task, attempt] {
            inj->count_fired(FaultSite::kRollbackInverse);
            throw InjectedFault(FaultSite::kRollbackInverse, task,
                                attempt);
          });
        }
        bool wants_commit = false;
        try {
          if (injector_ != nullptr) {
            // Injection sites: a slow task, then an operator that
            // throws a real (non-Abort) exception.
            injector_->maybe_stall(FaultSite::kOperatorDelay, task,
                                   attempt);
            injector_->maybe_throw(FaultSite::kOperatorThrow, task,
                                   attempt);
          }
          op_(task, ctx);
          wants_commit = !ctx.doomed_;  // a failed acquire dooms the task
        } catch (const AbortIteration&) {
          // voluntary abort, or a conflict deep in a walk (DMR's cavity)
        } catch (...) {
          // Application failure: preserved per-slot for the retry/
          // quarantine decision, and in round_error_ so it is never
          // silently dropped (RoundStats::first_error).
          ctx.fault_ = std::current_exception();
          record_round_error();
        }
        if (tlane != nullptr) {
          // held_ is still populated here (released below on abort), so
          // this is the per-task "items touched" sample either way.
          ++lane_executed;
          tlane->work.record(ctx.held_.size());
        }
        if (wants_commit) {
          // Committed iterations keep their items locked until the round
          // ends (the paper's semantics: an earlier committed neighbor
          // blocks).
          ctx.committed_ = true;
          if (tlane != nullptr) ++lane_committed;
        } else {
          // Roll back while still owning the touched items, then release
          // them immediately: an aborted task must not block later tasks
          // (§2.1). The unwind is two-phase (UndoLog::rollback): a
          // throwing inverse never strands the inverses below it.
          const std::uint64_t rb_t0 = timed ? phase_ticks() : 0;
          const std::uint64_t rb_w0 = spanned ? monotonic_ns() : 0;
          try {
            ctx.undo_.rollback();
          } catch (...) {
            ctx.rollback_fault_ = std::current_exception();
            record_round_error();
          }
          ctx.release_all();
          if (tlane != nullptr) {
            ++lane_aborted;
            if (timed) rollback_ticks += phase_ticks() - rb_t0;
            if (spanned) {
              sbuf->push({"rollback", span_tid, rb_w0, monotonic_ns(),
                          round_index_, task, false, {}});
            }
          }
        }
        slot_executed_[slot] = round_index_;
      }
      if (timed) {
        // exec covers the whole speculative slice (operator + commit/
        // rollback decisions); rollback above is a sub-slice of it.
        exec_ticks += phase_ticks() - phase_t;
        if (spanned) {
          sbuf->push({"exec", span_tid, span_t, monotonic_ns(),
                      round_index_, end - begin, false, {}});
        }
      }
    }
  } catch (...) {
    lane_pool_fault_[lane].value = std::current_exception();
    record_round_error();
  }
  if (tlane != nullptr) {
    // Single flush per round — a dying lane still reaches it (the catch
    // above absorbed the escape), so counters stay exact even on a pool
    // fault; only the fatal chunk's partial time is understated.
    tlane->executed += lane_executed;
    tlane->committed += lane_committed;
    tlane->aborted += lane_aborted;
    if (chunks_seen > 0) {
      // Scale the sampled tick totals up to the chunk population (the
      // sample is deterministic: chunks 0, P, 2P, ...), then convert
      // ticks to nanoseconds — once per phase per round.
      const std::uint64_t timed_chunks =
          (chunks_seen + kPhaseSamplePeriod - 1) / kPhaseSamplePeriod;
      const double scale = phase_ns_per_tick() *
                           static_cast<double>(chunks_seen) /
                           static_cast<double>(timed_chunks);
      tlane->draw_ns += static_cast<std::uint64_t>(
          static_cast<double>(draw_ticks) * scale);
      tlane->exec_ns += static_cast<std::uint64_t>(
          static_cast<double>(exec_ticks) * scale);
      tlane->rollback_ns += static_cast<std::uint64_t>(
          static_cast<double>(rollback_ticks) * scale);
    }
  }
  // --- Round barrier: commits become final, locks still held. ---------
  // Every lane arrives exactly once, even after a pool fault above —
  // otherwise the surviving lanes would spin forever. The single-lane
  // fast path has no peers to fence against and skips it outright.
  if constexpr (!kSerial) barrier->arrive_and_wait();
  // --- Epilogue phase (parallel): publish pushes of committed
  //     iterations, buffer requeues lane-locally, release locks. -------
  try {
    auto& requeue = lane_requeue_[lane].value;
    std::uint32_t committed = 0;
    const std::uint64_t commit_t0 = tlane != nullptr ? phase_ticks() : 0;
    const std::uint64_t commit_w0 = sbuf != nullptr ? monotonic_ns() : 0;
    for (;;) {
      std::size_t begin;
      if constexpr (kSerial) {
        begin = serial_finalize;
        serial_finalize += kFinalizeChunk;
      } else {
        begin = finalize_cursor_.fetch_add(kFinalizeChunk,
                                           std::memory_order_relaxed);
      }
      if (begin >= plan.take) break;
      const std::size_t end = std::min(plan.take, begin + kFinalizeChunk);
      for (std::size_t slot = begin; slot < end; ++slot) {
        if (slot_executed_[slot] != round_index_) {
          continue;  // a dead lane's ticket; salvaged serially
        }
        IterationContext& ctx = *arena_[slot];
        if (ctx.committed_) {
          ctx.undo_.discard();
          ++committed;
          requeue.insert(requeue.end(), ctx.pushed_.begin(),
                         ctx.pushed_.end());
          ctx.release_all();
        } else if (plan.absorbing && (ctx.fault_ || ctx.rollback_fault_)) {
          // Failed, not merely conflicted: the serial tail decides
          // retry-with-backoff vs quarantine. Not requeued here.
          lane_faulted_[lane].value.push_back(slot);
        } else {
          requeue.push_back(active_[slot]);
        }
        slot_finalized_[slot] = round_index_;
      }
    }
    lane_committed_[lane].value = committed;
    // --- Splice this lane's requeue buffer back into the work-set. ----
    // Backend exceptions (e.g. a throwing priority function) propagate
    // into the catch below and become a recorded pool fault; the serial
    // tail re-splices the still-populated buffer through requeue().
    if (!requeue.empty()) {
      sched_->splice(lane, requeue);
      requeue.clear();  // spliced; salvage treats leftovers as unspliced
    }
    if (tlane != nullptr) {
      tlane->commit_ns += phase_ticks_to_ns(phase_ticks() - commit_t0);
    }
    if (sbuf != nullptr) {
      sbuf->push({"commit", span_tid, commit_w0, monotonic_ns(),
                  round_index_, committed, false, {}});
    }
  } catch (...) {
    if (!lane_pool_fault_[lane].value) {
      lane_pool_fault_[lane].value = std::current_exception();
    }
    record_round_error();
  }
}

RoundStats SpeculativeExecutor::run_round(std::uint32_t m) {
  // nullptr accumulator → ScopedTimer performs no clock reads at all.
  ScopedTimer round_timer(acc_round_);
  ++round_index_;
  // Coordinator-level round span (tid 0); lane chunk spans nest under it
  // on their own tids. Null collector = no clock read, same as the timer.
  telemetry::SpanScope round_span(
      telemetry_ != nullptr ? telemetry_->spans() : nullptr, "round", 0,
      round_index_, m);
  release_due_deferred();
  RoundStats stats;
  const std::uint64_t injected_before =
      injector_ != nullptr ? injector_->total_fired() : 0;
  const bool centralized = sched_->centralized();
  round_hardened_ = injector_ != nullptr || policy_.has_value();
  std::size_t take = 0;
  if (centralized) {
    // Centralized backends materialize the active set up front: the heap /
    // color class IS the policy.
    take = sched_->begin_round(m, active_);
  } else {
    take = std::min<std::size_t>(m, sched_->size());
    active_.resize(take);  // slots are filled by the drawing lanes
    if (round_hardened_) {
      // Salvage after a lane death must know which tickets were redeemed.
      std::fill_n(active_.begin(), take, kNoTask);
    }
  }
  stats.launched = static_cast<std::uint32_t>(take);
  if (telemetry_ != nullptr) {
    telemetry_->emit({telemetry::EventKind::kRoundStart, 0, round_index_, m,
                      take, 0.0, 0.0, {}});
  }
  if (take == 0) return stats;

  // Arena: slot i of this round recycles arena_[i]; only first-time slots
  // allocate. Slot indices are the lock table's owner tags, so none may
  // reach LockManager::kFree.
  assert(take < LockManager::kFree);
  while (arena_.size() < take) {
    arena_.push_back(std::make_unique<IterationContext>(locks_, 0));
  }
  if (slot_executed_.size() < take) {
    slot_executed_.resize(take, 0);
    slot_finalized_.resize(take, 0);
  }

  // Lane count: at most one lane per pool worker, CAPPED by the
  // processor-allocation setting: by default no more lanes than the
  // machine has cores to run them (oversubscribed lanes only add
  // draw-cursor and barrier traffic — the paper's allocation argument
  // applied to the runtime itself). A nested call
  // site (inside a pool worker) cannot get concurrent lanes from the
  // pool, so it must run single-lane; after graceful degradation the
  // executor pins itself to the serial path regardless of the pool.
  const std::size_t lane_cap = pipeline_.max_lanes != 0
                                   ? pipeline_.max_lanes
                                   : effective_concurrency();
  std::size_t lanes =
      pool_.in_worker_context()
          ? 1
          : std::max<std::size_t>(
                1, std::min({shard_count_, take, lane_cap}));
  if (serial_fallback_) lanes = 1;
  if (lane_requeue_.size() < lanes) lane_requeue_.resize(lanes);
  if (lane_committed_.size() < lanes) lane_committed_.resize(lanes);
  if (lane_faulted_.size() < lanes) lane_faulted_.resize(lanes);
  if (lane_pool_fault_.size() < lanes) lane_pool_fault_.resize(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    lane_requeue_[l].value.clear();
    lane_committed_[l].value = 0;
    lane_faulted_[l].value.clear();
    lane_pool_fault_[l].value = nullptr;
  }
  if (telemetry_ != nullptr) {
    telemetry_->ensure_lanes(lanes);
    // slot→lane stamps let the serial tail attribute retries/quarantines
    // to the executing lane; maintained only while a sink is attached.
    if (slot_lane_.size() < take) slot_lane_.resize(take, 0);
  }
  draw_cursor_.store(0, std::memory_order_relaxed);
  finalize_cursor_.store(0, std::memory_order_relaxed);
  round_error_ = nullptr;
  const bool absorbing = absorbs_faults();
  // kPoolLane models a dying pool worker; the serial path runs on the
  // caller's thread, which this site does not model — gating it keeps the
  // degraded executor guaranteed to drain.
  const bool inject_lane_faults = injector_ != nullptr && lanes > 1;

  RoundPlan plan;
  plan.take = take;
  plan.chunk = draw_chunk(take, lanes);
  plan.centralized = centralized;
  plan.absorbing = absorbing;
  plan.inject_lane_faults = inject_lane_faults;

  if (lanes == 1 && pipeline_.single_lane_fast_path) {
    // Deterministic fast path: identical claim order to a one-lane pool
    // run, but no fork-join hop, no barrier, and relaxed lock-table
    // traffic. Called directly so in_worker_context() stays false for
    // the operator, exactly as fork_join(participants == 1) behaved.
    round_lane<true>(0, plan, nullptr);
  } else {
    SpinBarrier round_barrier(lanes);
    pool_.run_on_workers(lanes, [&](std::size_t lane) {
      round_lane<false>(lane, plan, &round_barrier);
    });
  }

  // --- Serial tail: pool-fault salvage, then retry/quarantine. -----------
  std::vector<std::size_t> faulted_slots;
  bool lane_fault = false;
  for (std::size_t l = 0; l < lanes; ++l) {
    if (lane_pool_fault_[l].value) lane_fault = true;
  }
  if (lane_fault) {
    ++pool_failures_;
    if (telemetry_ != nullptr) {
      for (std::size_t l = 0; l < lanes; ++l) {
        if (lane_pool_fault_[l].value) {
          telemetry_->emit(
              {telemetry::EventKind::kLaneDeath,
               static_cast<std::uint32_t>(l), round_index_, pool_failures_,
               0, 0.0, 0.0,
               telemetry::describe_exception(lane_pool_fault_[l].value)});
        }
      }
    }
    {
      ScopedTimer salvage_timer(acc_salvage_);
      salvage_round(stats, take, lanes, faulted_slots);
    }
    if (policy_.has_value() &&
        pool_failures_ >= policy_->max_pool_failures) {
      if (!serial_fallback_ && telemetry_ != nullptr) {
        telemetry_->emit({telemetry::EventKind::kSerialDegrade, 0,
                          round_index_, pool_failures_, 0, 0.0, 0.0,
                          "pool-failure budget exhausted"});
      }
      serial_fallback_ = true;  // graceful degradation: serial from now on
    }
  } else {
    for (std::size_t l = 0; l < lanes; ++l) {
      stats.committed += lane_committed_[l].value;
    }
  }
  if (absorbing) {
    for (std::size_t l = 0; l < lanes; ++l) {
      auto& faulted = lane_faulted_[l].value;
      faulted_slots.insert(faulted_slots.end(), faulted.begin(),
                           faulted.end());
    }
    // Ascending slot order makes the retry/quarantine sequence (and the
    // dead-letter list) deterministic for a fixed fault seed.
    std::sort(faulted_slots.begin(), faulted_slots.end());
    process_faulted_slots(stats, faulted_slots);
    if (!failure_attempts_.empty()) {
      // A task that finally committed clears its attempt history.
      for (std::size_t slot = 0; slot < take; ++slot) {
        if (slot_executed_[slot] == round_index_ &&
            arena_[slot]->committed_) {
          failure_attempts_.erase(active_[slot]);
        }
      }
    }
    if (dead_letters_.size() > policy_->quarantine_budget) {
      if (!serial_fallback_ && telemetry_ != nullptr) {
        telemetry_->emit({telemetry::EventKind::kSerialDegrade, 0,
                          round_index_, dead_letters_.size(), 0, 0.0, 0.0,
                          "quarantine budget exhausted"});
      }
      serial_fallback_ = true;
    }
  }
  stats.aborted = stats.launched - stats.committed;
  // Zero-abort backends (chromatic): same-color tasks have pairwise
  // disjoint declared footprints, so no iteration can ever lose a lock
  // conflict. Conflict detection stays on (the locks are the correctness
  // net) but is demoted to this debug assert; hardened rounds and runs
  // with a fault injector attached are exempt (injected faults and
  // voluntary retries abort without conflicting).
  assert(!sched_->zero_abort() || round_hardened_ || injector_ != nullptr ||
         stats.aborted == 0);
  assert(locks_.all_free());
  if (injector_ != nullptr) {
    stats.injected =
        static_cast<std::uint32_t>(injector_->total_fired() -
                                   injected_before);
  }

  ++totals_.rounds;
  totals_.launched += stats.launched;
  totals_.committed += stats.committed;
  totals_.aborted += stats.aborted;
  totals_.retried += stats.retried;
  totals_.quarantined += stats.quarantined;

  if (!stats.first_error && round_error_) stats.first_error = round_error_;
  if (telemetry_ != nullptr) {
    const double rate =
        stats.launched == 0
            ? 0.0
            : static_cast<double>(stats.committed) /
                  static_cast<double>(stats.launched);
    telemetry_->emit({telemetry::EventKind::kRoundEnd, 0, round_index_,
                      stats.launched, stats.committed, rate,
                      static_cast<double>(stats.aborted), {}});
  }
  if (round_error_) {
    // The round's bookkeeping is complete (locks free, tasks requeued or
    // quarantined, totals counted). Legacy contract: surface the error.
    // With an absorbing FailurePolicy it stays on the stats instead.
    std::exception_ptr error = round_error_;
    round_error_ = nullptr;
    if (!absorbing) std::rethrow_exception(error);
  }
  return stats;
}

// ---- checkpoint/restore (DESIGN.md §11) -----------------------------------
//
// Serialization invariants the format relies on:
//  * Between rounds every per-round scratch structure (arena, active_,
//    lane buffers, cursors, round_error_) is logically empty, so only the
//    durable state below needs to cross the snapshot.
//  * The work-set itself is owned by the scheduler backend; its bytes are
//    delegated to Scheduler::save_state/load_state after the shape header
//    (which pins the backend tag, so a snapshot can never be replayed
//    under a different draw discipline).
//  * failure_attempts_ is only ever probed point-wise (find/erase), so the
//    rebuilt map's iteration order is irrelevant; entries are written
//    sorted by task purely to make the snapshot bytes canonical.

namespace {

[[noreturn]] void state_mismatch(const std::string& what) {
  throw snapshot::SnapshotError(snapshot::SnapshotError::Kind::kMismatch,
                                "executor state: " + what);
}

void write_rng(snapshot::Writer& out, const Rng& rng) {
  for (const std::uint64_t w : rng.state()) out.u64(w);
}

void read_rng(snapshot::Reader& in, Rng& rng) {
  std::array<std::uint64_t, 4> s{};
  for (auto& w : s) w = in.u64();
  rng.set_state(s);
}

}  // namespace

void SpeculativeExecutor::save_state(snapshot::Writer& out) const {
  // Shape header: everything load_state cross-checks before touching state.
  out.u64(backoff_seed_);
  out.u64(static_cast<std::uint64_t>(shard_count_));
  out.u8(static_cast<std::uint8_t>(policy_wl_));
  out.u8(kAbortSelfArbitration);
  out.u8(static_cast<std::uint8_t>(sched_->backend()));
  out.u64(static_cast<std::uint64_t>(locks_.size()));

  write_rng(out, rng_);
  for (const Rng& rng : helper_rngs_) write_rng(out, rng);

  // Backend-owned work-set (DESIGN.md §14).
  sched_->save_state(out);

  out.u64(round_index_);
  out.u32(0);  // reserved: the retired iteration counter (ignored on load)
  out.u64(totals_.rounds);
  out.u64(totals_.launched);
  out.u64(totals_.committed);
  out.u64(totals_.aborted);
  out.u64(totals_.retried);
  out.u64(totals_.quarantined);

  std::vector<std::pair<TaskId, std::uint32_t>> attempts(
      failure_attempts_.begin(), failure_attempts_.end());
  std::sort(attempts.begin(), attempts.end());
  out.u64(attempts.size());
  for (const auto& [task, count] : attempts) {
    out.u64(task);
    out.u32(count);
  }

  out.u64(deferred_.size());
  for (const Deferred& d : deferred_) {
    out.u64(d.due_round);
    out.u64(d.task);
  }

  out.u64(dead_letters_.size());
  for (const DeadLetter& dl : dead_letters_) {
    out.u64(dl.task);
    out.u32(dl.attempts);
    out.str(dl.error);
  }

  out.u32(pool_failures_);
  out.u8(serial_fallback_ ? 1 : 0);
}

void SpeculativeExecutor::load_state(snapshot::Reader& in) {
  if (in.u64() != backoff_seed_) state_mismatch("seed differs");
  if (in.u64() != shard_count_) state_mismatch("shard count differs");
  if (in.u8() != static_cast<std::uint8_t>(policy_wl_)) {
    state_mismatch("worklist policy differs");
  }
  if (in.u8() != kAbortSelfArbitration) {
    state_mismatch("arbitration policy differs");
  }
  if (in.u8() != static_cast<std::uint8_t>(sched_->backend())) {
    state_mismatch("scheduler backend differs");
  }
  const std::uint64_t lock_items = in.u64();
  if (lock_items < locks_.size()) state_mismatch("lock table shrank");
  locks_.grow(lock_items);  // mid-run grow_items calls replayed in one step

  read_rng(in, rng_);
  for (Rng& rng : helper_rngs_) read_rng(in, rng);

  sched_->load_state(in);

  round_index_ = in.u64();
  static_cast<void>(in.u32());  // reserved (save_state)
  totals_.rounds = in.u64();
  totals_.launched = in.u64();
  totals_.committed = in.u64();
  totals_.aborted = in.u64();
  totals_.retried = in.u64();
  totals_.quarantined = in.u64();

  failure_attempts_.clear();
  const std::uint64_t attempt_count = in.u64();
  for (std::uint64_t i = 0; i < attempt_count; ++i) {
    const TaskId task = in.u64();
    failure_attempts_[task] = in.u32();
  }

  deferred_.clear();
  const std::uint64_t deferred_count = in.u64();
  // Pre-size from the bytes actually present, never the claimed count — a
  // hostile length must hit a bounds-checked read, not an allocation.
  deferred_.reserve(std::min<std::uint64_t>(deferred_count,
                                            in.remaining() / 16));
  for (std::uint64_t i = 0; i < deferred_count; ++i) {
    Deferred d;
    d.due_round = in.u64();
    d.task = in.u64();
    deferred_.push_back(d);
  }

  dead_letters_.clear();
  const std::uint64_t dead_count = in.u64();
  dead_letters_.reserve(std::min<std::uint64_t>(dead_count,
                                                in.remaining() / 20));
  for (std::uint64_t i = 0; i < dead_count; ++i) {
    DeadLetter dl;
    dl.task = in.u64();
    dl.attempts = in.u32();
    dl.error = in.str();
    dead_letters_.push_back(std::move(dl));
  }

  pool_failures_ = in.u32();
  serial_fallback_ = in.u8() != 0;
}

}  // namespace optipar
