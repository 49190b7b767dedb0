// optipar_serve: a crash-safe scheduler daemon for speculative runs
// (DESIGN.md §13). One Server owns
//
//   * a UNIX stream socket speaking the serve/wire.hpp protocol,
//   * a bounded AdmissionQueue (typed kOverloaded backpressure),
//   * ONE fork-join ThreadPool that every job's SpeculativeExecutor shares,
//   * a single scheduler thread that multiplexes active jobs by stepping
//     their AdaptiveRuns round-robin (each step() boundary is a deadline /
//     cancellation / checkpoint point), and
//   * a write-ahead jobs journal + per-job checkpoint directories, so a
//     SIGKILL at any instant resumes every accepted job from its newest
//     valid checkpoint on restart — byte-identically at one lane.
//
// Degradation ladder under pressure: admission sheds load first (typed
// kOverloaded, never a hang), then active jobs shrink their per-round lane
// allocation (threads / active_jobs, floor 1) so throughput degrades
// smoothly instead of thrashing the pool; health checks are answered by
// independent connection threads throughout. A job that fails — poisoned
// operator, corrupt graph file, livelock — is quarantined as kFailed with
// its error recorded durably; neighbors and the daemon itself are
// unaffected. Drain shutdown finishes queued jobs in WAL (== FIFO) order;
// immediate shutdown force-checkpoints active jobs and abandons them to the
// next incarnation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/admission.hpp"
#include "serve/job.hpp"
#include "serve/wire.hpp"
#include "support/telemetry/latency_histogram.hpp"
#include "support/thread_pool.hpp"

namespace optipar::snapshot {
class RoundJournal;
}  // namespace optipar::snapshot

namespace optipar::serve {

struct ServerConfig {
  std::string socket_path;
  std::string state_dir;
  std::size_t threads = 4;        ///< fork-join pool lanes shared by jobs
  std::size_t queue_capacity = 16;
  std::size_t max_active = 2;     ///< jobs multiplexed at once
  std::size_t max_connections = 64;
  std::int64_t default_timeout_ms = 0;  ///< applied when a request says 0
  std::uint32_t checkpoint_every = 8;   ///< default snapshot cadence
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  std::size_t max_graph_bytes = 8u << 20;  ///< upload payload bound
  std::uint32_t rounds_per_slice = 8;  ///< scheduler round-robin quantum
  std::size_t trace_cache = 64;        ///< finished-job artifacts retained
};

/// Observability artifacts retained per finished run job, served through
/// kTrace (jsonl, for compatibility) and kArtifact (all three).
struct JobArtifacts {
  std::string jsonl;         ///< round/event trace JSONL
  std::string chrome;        ///< Chrome trace-event JSON (Perfetto)
  std::string metrics_json;  ///< per-job metrics export (optipar.metrics.v2)
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Open the state dir, replay the jobs WAL (re-admitting every job that
  /// was accepted but not finished, in WAL order), bind the socket, and
  /// launch the accept + scheduler threads. Throws on any setup failure.
  void start();

  /// Block until shutdown completes, then tear down sockets and threads.
  void wait();

  /// Initiate shutdown (idempotent; callable from connection threads).
  /// drain = finish every queued job first; otherwise active jobs are
  /// force-checkpointed and abandoned to the next incarnation.
  void request_shutdown(bool drain);

  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }
  /// Jobs re-admitted from the WAL by start() (observable for tests/logs).
  [[nodiscard]] std::uint64_t recovered_jobs() const noexcept {
    return recovered_;
  }

 private:
  struct ActiveJob;   // scheduler-owned per-job machinery (server.cpp)
  struct Connection;  // one accepted socket + its thread

  void accept_loop();
  void scheduler_loop();
  void serve_connection(Connection* conn);
  /// Dispatch one decoded request; returns the reply payload.
  std::vector<std::byte> handle_request(std::span<const std::byte> payload);

  std::vector<std::byte> handle_upload(std::span<const std::byte> payload);
  std::vector<std::byte> handle_submit(std::span<const std::byte> payload);
  std::vector<std::byte> handle_status(std::uint64_t job_id);
  std::vector<std::byte> handle_trace(std::uint64_t job_id);
  std::vector<std::byte> handle_artifact(std::uint64_t job_id,
                                         ArtifactKind kind);
  std::vector<std::byte> handle_cancel(std::uint64_t job_id);
  std::vector<std::byte> handle_server_status();
  std::vector<std::byte> handle_metrics(const std::string& format);

  /// Turn a popped queue id into an ActiveJob (run jobs) or execute it
  /// synchronously (estimate jobs). Any failure quarantines the job as
  /// kFailed — activation errors never unwind the scheduler.
  void activate(std::uint64_t job_id);
  void finish_job(const std::shared_ptr<Job>& job, JobState state,
                  JobResult result, JobArtifacts artifacts);
  [[nodiscard]] std::string graph_path(const std::string& name) const;
  [[nodiscard]] std::string job_dir(std::uint64_t job_id) const;

  ServerConfig config_;
  std::unique_ptr<AdmissionQueue> queue_;
  std::unique_ptr<ThreadPool> pool_;

  // Job table + WAL, one lock: submissions must make (capacity check →
  // WAL append → enqueue) atomic or the WAL and queue orders could
  // disagree; every other critical section is short.
  mutable std::mutex jobs_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::unique_ptr<snapshot::RoundJournal> wal_;
  std::uint64_t next_job_id_ = 1;
  std::unordered_map<std::uint64_t, JobArtifacts> artifacts_;
  std::deque<std::uint64_t> artifact_order_;  ///< FIFO eviction

  // Lifecycle counters (ServerInfoReply / metrics).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> timed_out_{0};
  std::atomic<std::uint64_t> resumed_{0};
  std::atomic<std::uint64_t> certified_{0};    ///< verify jobs: cert held
  std::atomic<std::uint64_t> cert_failed_{0};  ///< verify jobs: cert refuted
  std::atomic<std::uint64_t> active_count_{0};
  std::uint64_t recovered_ = 0;

  // Scheduler state (scheduler thread only).
  std::list<std::unique_ptr<ActiveJob>> active_;

  // Serve latency histograms (DESIGN.md §15): recorded by the scheduler
  // thread (and the submit path for e2e of never-activated jobs), scraped
  // by connection threads via handle_metrics — hence their own short lock.
  mutable std::mutex lat_mutex_;
  telemetry::LatencyHistogram lat_admission_;   ///< submit → activate
  telemetry::LatencyHistogram lat_first_round_; ///< activate → first step
  telemetry::LatencyHistogram lat_round_;       ///< one step() each
  telemetry::LatencyHistogram lat_e2e_;         ///< submit → terminal state

  // Shutdown machinery.
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_now_{false};
  std::atomic<bool> started_{false};

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::thread scheduler_thread_;
  std::mutex conns_mutex_;
  std::list<std::unique_ptr<Connection>> conns_;
};

}  // namespace optipar::serve
