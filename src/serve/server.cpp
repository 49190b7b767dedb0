#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "apps/app_spec.hpp"
#include "control/factory.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph_io.hpp"
#include "model/conflict_ratio.hpp"
#include "rt/adaptive_executor.hpp"
#include "rt/checkpoint.hpp"
#include "rt/spec_executor.hpp"
#include "sim/trace.hpp"
#include "support/deadline.hpp"
#include "support/rng.hpp"
#include "support/snapshot/journal.hpp"
#include "support/snapshot/snapshot.hpp"
#include "support/telemetry/metrics_registry.hpp"
#include "support/telemetry/span_trace.hpp"
#include "support/telemetry/telemetry.hpp"
#include "support/timer.hpp"
#include "verify/executor_cert.hpp"

namespace optipar::serve {

namespace {

using namespace std::chrono_literals;

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw std::runtime_error("serve: cannot create directory " + path + ": " +
                           std::strerror(errno));
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// Best-effort removal of a terminal job's checkpoint artifacts: once the
/// kFinished WAL record is durable the job can never be resumed, so its
/// snapshots are dead disk weight (the soak test's bounded-footprint
/// guarantee depends on this).
void remove_job_dir(const std::string& dir) {
  for (const char* f : {"/snap-a.bin", "/snap-b.bin", "/journal.bin",
                        "/snap-a.bin.tmp", "/snap-b.bin.tmp"}) {
    std::remove((dir + f).c_str());
  }
  ::rmdir(dir.c_str());
}

/// Assemble a finished run job's retained artifacts: the trace JSONL the
/// caller already rendered, the Chrome trace export (the job span is
/// closed first so the timeline brackets everything), and the per-job
/// metrics JSON — the same `tel.export_metrics + render_json` document
/// `optipar_cli run --metrics-out` writes.
JobArtifacts collect_artifacts(std::string jsonl,
                               telemetry::RuntimeTelemetry& tel,
                               telemetry::SpanCollector& spans,
                               std::size_t job_span) {
  JobArtifacts art;
  art.jsonl = std::move(jsonl);
  spans.end(job_span);
  std::ostringstream chrome;
  spans.export_chrome(chrome);
  art.chrome = chrome.str();
  MetricsRegistry reg;
  tel.export_metrics(reg);
  std::ostringstream metrics;
  reg.render_json(metrics);
  art.metrics_json = metrics.str();
  return art;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scheduler-side per-job machinery. Declaration order is destruction order
// reversed: `run` references exec/controller/checkpoint and the executor
// holds non-owning pointers into `tel` and `graph`, so `run` must die first
// and `graph`/`tel` last.
// ---------------------------------------------------------------------------

struct Server::ActiveJob {
  std::shared_ptr<Job> job;
  CsrGraph graph;
  std::unique_ptr<telemetry::RuntimeTelemetry> tel;
  std::unique_ptr<telemetry::SpanCollector> spans;  ///< pid = job id
  std::unique_ptr<SpeculativeExecutor> exec;
  std::unique_ptr<Controller> controller;
  std::unique_ptr<CheckpointManager> checkpoint;
  std::unique_ptr<AdaptiveRun> run;
  std::size_t lanes = 0;      ///< last applied per-round lane cap
  std::size_t job_span = 0;   ///< the open "job" span's handle
  bool first_step_done = false;  ///< time-to-first-round already recorded
};

struct Server::Connection {
  std::atomic<int> fd{-1};
  std::thread thread;
  std::atomic<bool> done{false};
};

Server::Server(ServerConfig config) : config_(std::move(config)) {
  if (config_.threads == 0) config_.threads = 1;
  if (config_.max_active == 0) config_.max_active = 1;
  if (config_.rounds_per_slice == 0) config_.rounds_per_slice = 1;
}

Server::~Server() {
  if (started_.load()) {
    request_shutdown(/*drain=*/false);
    wait();
  }
}

std::string Server::graph_path(const std::string& name) const {
  return config_.state_dir + "/graphs/" + name + ".bin";
}

std::string Server::job_dir(std::uint64_t job_id) const {
  return config_.state_dir + "/jobs/job-" + std::to_string(job_id);
}

void Server::start() {
  make_dir(config_.state_dir);
  make_dir(config_.state_dir + "/graphs");
  make_dir(config_.state_dir + "/jobs");
  queue_ = std::make_unique<AdmissionQueue>(config_.queue_capacity);
  pool_ = std::make_unique<ThreadPool>(config_.threads);

  // WAL replay: rebuild the job table, then re-admit {submitted} minus
  // {finished} in journal order. The journal's own open already ran
  // torn-tail recovery, so every record seen here is CRC-committed.
  wal_ = std::make_unique<snapshot::RoundJournal>(config_.state_dir +
                                                  "/jobs.wal");
  std::vector<std::uint64_t> order;
  for (const auto& bytes : wal_->records()) {
    WalRecord rec;
    try {
      rec = decode_wal_record(bytes);
    } catch (const std::exception& e) {
      // A structurally invalid (but CRC-valid) record means this WAL was
      // written by a different build. Skip it — the daemon must come up.
      std::cerr << "optipar_serve: skipping unreadable WAL record: "
                << e.what() << "\n";
      continue;
    }
    if (rec.kind == WalRecordKind::kSubmitted) {
      auto job = std::make_shared<Job>();
      job->spec = rec.spec;
      job->recovered = true;
      jobs_[rec.spec.id] = job;
      order.push_back(rec.spec.id);
      next_job_id_ = std::max(next_job_id_, rec.spec.id + 1);
      submitted_.fetch_add(1, std::memory_order_relaxed);
    } else {
      const auto it = jobs_.find(rec.id);
      if (it == jobs_.end()) continue;
      it->second->state.store(rec.final_state, std::memory_order_release);
      it->second->result = rec.result;
      next_job_id_ = std::max(next_job_id_, rec.id + 1);
      // Certification verdicts are durable in the kFinished record; keep
      // the attestation counters consistent across restarts.
      if (rec.result.verified == 1) {
        certified_.fetch_add(1, std::memory_order_relaxed);
      } else if (rec.result.verified == 2) {
        cert_failed_.fetch_add(1, std::memory_order_relaxed);
      }
      switch (rec.final_state) {
        case JobState::kDone:
          completed_.fetch_add(1, std::memory_order_relaxed);
          break;
        case JobState::kFailed:
          failed_.fetch_add(1, std::memory_order_relaxed);
          break;
        case JobState::kCancelled:
          cancelled_.fetch_add(1, std::memory_order_relaxed);
          break;
        case JobState::kTimedOut:
          timed_out_.fetch_add(1, std::memory_order_relaxed);
          break;
        default:
          break;
      }
    }
  }
  for (const std::uint64_t id : order) {
    const auto& job = jobs_.at(id);
    const JobState s = job->state.load(std::memory_order_acquire);
    if (s == JobState::kQueued) {
      // The original submit instant did not survive the crash (timestamps
      // are monotonic, not wall-clock): the recovered job's admission wait
      // is measured from this incarnation's replay.
      job->submit_ns = monotonic_ns();
      queue_->readmit(id);  // bypasses capacity: already-accepted work
      ++recovered_;
    }
  }

  // Socket.
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw WireError(WireError::Kind::kIo,
                    std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("serve: socket path too long: " +
                                config_.socket_path);
  }
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);
  ::unlink(config_.socket_path.c_str());  // stale socket from a crash
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw WireError(WireError::Kind::kIo,
                    "bind " + config_.socket_path + ": " +
                        std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) < 0) {
    throw WireError(WireError::Kind::kIo,
                    std::string("listen: ") + std::strerror(errno));
  }

  started_.store(true);
  scheduler_thread_ = std::thread(&Server::scheduler_loop, this);
  accept_thread_ = std::thread(&Server::accept_loop, this);
}

void Server::request_shutdown(bool drain) {
  if (drain) {
    draining_.store(true, std::memory_order_release);
  } else {
    stop_now_.store(true, std::memory_order_release);
  }
  if (queue_) queue_->close();
}

void Server::wait() {
  if (scheduler_thread_.joinable()) scheduler_thread_.join();
  // The scheduler is the daemon's lifetime: once it returns, stop
  // answering and tear down. stop_now_ doubles as the accept loop's stop
  // flag (it polls, so no wake-up trick is needed).
  stop_now_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
  }
  std::list<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    const int fd = conn->fd.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);  // wakes a blocked recv
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  started_.store(false);
}

// ---------------------------------------------------------------------------
// Accept + connection threads
// ---------------------------------------------------------------------------

void Server::accept_loop() {
  for (;;) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (stop_now_.load(std::memory_order_acquire)) return;
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (rc == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    std::lock_guard<std::mutex> lock(conns_mutex_);
    // Reap finished connections so the list (and thread count) stays
    // bounded by the number of LIVE connections, not total ever accepted.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    if (conns_.size() >= config_.max_connections) {
      // Connection-level load shedding: typed backpressure, then close.
      try {
        send_frame(fd, OverloadedReply{queue_ ? queue_->depth() : 0,
                                       config_.queue_capacity}
                           .encode());
      } catch (...) {
      }
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd.store(fd, std::memory_order_release);
    Connection* raw = conn.get();
    conns_.push_back(std::move(conn));
    raw->thread = std::thread(&Server::serve_connection, this, raw);
  }
}

void Server::serve_connection(Connection* conn) {
  const int fd = conn->fd.load(std::memory_order_acquire);
  try {
    for (;;) {
      const auto payload = recv_frame(fd, config_.max_frame_bytes);
      std::vector<std::byte> reply;
      try {
        reply = handle_request(payload);
      } catch (const WireError& e) {
        // Payload-level defect (bad tag, truncated fields): the framing is
        // still synchronized, so answer and keep the connection.
        reply = ErrorReply{ErrorCode::kBadRequest, e.what()}.encode();
      } catch (const snapshot::SnapshotError& e) {
        reply = ErrorReply{ErrorCode::kInternal, e.what()}.encode();
      } catch (const std::exception& e) {
        reply = ErrorReply{ErrorCode::kInternal, e.what()}.encode();
      }
      send_frame(fd, reply);
    }
  } catch (const WireError& e) {
    // Frame-level defect or disconnect. For defects the stream may be out
    // of sync, so reply best-effort with the typed reason and drop the
    // connection; kClosed/kIo are ordinary disconnects.
    if (e.kind() != WireError::Kind::kClosed &&
        e.kind() != WireError::Kind::kIo) {
      try {
        send_frame(fd, ErrorReply{ErrorCode::kBadRequest, e.what()}.encode());
      } catch (...) {
      }
    }
  } catch (...) {
  }
  ::close(fd);
  conn->fd.store(-1, std::memory_order_release);
  conn->done.store(true, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Request handlers (connection threads)
// ---------------------------------------------------------------------------

std::vector<std::byte> Server::handle_request(
    std::span<const std::byte> payload) {
  switch (peek_type(payload)) {
    case MsgType::kHealth:
      return OkReply{"ok"}.encode();
    case MsgType::kUploadGraph:
      return handle_upload(payload);
    case MsgType::kRun:
    case MsgType::kEstimate:
      return handle_submit(payload);
    case MsgType::kStatus:
      return handle_status(JobIdRequest::decode(payload).job);
    case MsgType::kTrace:
      return handle_trace(JobIdRequest::decode(payload).job);
    case MsgType::kCancel:
      return handle_cancel(JobIdRequest::decode(payload).job);
    case MsgType::kServerStatus:
      return handle_server_status();
    case MsgType::kMetrics:
      return handle_metrics(MetricsRequest::decode(payload).format);
    case MsgType::kArtifact: {
      const auto req = ArtifactRequest::decode(payload);
      return handle_artifact(req.job, req.kind);
    }
    case MsgType::kShutdown: {
      const auto req = ShutdownRequest::decode(payload);
      request_shutdown(req.drain);
      return OkReply{req.drain ? "draining" : "stopping"}.encode();
    }
    default:
      throw WireError(WireError::Kind::kBadType,
                      "message type is not a request");
  }
}

std::vector<std::byte> Server::handle_upload(
    std::span<const std::byte> payload) {
  const auto req = UploadGraphRequest::decode(payload);
  if (!valid_graph_name(req.name)) {
    return ErrorReply{ErrorCode::kBadRequest,
                      "invalid graph name (want 1-64 of [A-Za-z0-9_.-], no "
                      "leading dot)"}
        .encode();
  }
  if (req.text.size() > config_.max_graph_bytes) {
    return ErrorReply{ErrorCode::kBadRequest,
                      "graph exceeds " +
                          std::to_string(config_.max_graph_bytes) + " bytes"}
        .encode();
  }
  try {
    // Parse NOW: a graph that cannot be read must be refused at upload,
    // not discovered as a poisoned job later.
    std::istringstream is(req.text);
    const CsrGraph g = io::read_edge_list(is);
    snapshot::Writer out;
    out.str(req.text);
    snapshot::write_file_atomic(graph_path(req.name), out.take());
    return OkReply{"graph '" + req.name +
                   "' stored: n=" + std::to_string(g.num_nodes()) +
                   " m=" + std::to_string(g.num_edges())}
        .encode();
  } catch (const io::GraphIoError& e) {
    return ErrorReply{ErrorCode::kBadRequest, e.what()}.encode();
  }
}

std::vector<std::byte> Server::handle_submit(
    std::span<const std::byte> payload) {
  JobSpec spec;
  if (peek_type(payload) == MsgType::kRun) {
    const auto req = RunRequest::decode(payload);
    spec.kind = JobKind::kRun;
    spec.graph = req.graph;
    spec.controller = req.controller;
    spec.rho = req.rho;
    spec.seed = req.seed;
    spec.steps = req.steps;
    spec.m0 = req.m0;
    spec.m_max = req.m_max;
    spec.timeout_ms = req.timeout_ms;
    spec.checkpoint_every = req.checkpoint_every;
    spec.scheduler = req.scheduler;
    spec.verify = req.verify;
  } else {
    const auto req = EstimateRequest::decode(payload);
    spec.kind = JobKind::kEstimate;
    spec.graph = req.graph;
    spec.rho = req.rho;
    spec.seed = req.seed;
    spec.steps = req.trials;
  }
  if (!valid_graph_name(spec.graph)) {
    return ErrorReply{ErrorCode::kBadRequest, "invalid graph name"}.encode();
  }
  if (!file_exists(graph_path(spec.graph))) {
    return ErrorReply{ErrorCode::kUnknownGraph,
                      "no uploaded graph named '" + spec.graph + "'"}
        .encode();
  }
  if (!(spec.rho > 0.0) || spec.rho > 1.0) {
    return ErrorReply{ErrorCode::kBadRequest, "rho must be in (0, 1]"}
        .encode();
  }
  if (spec.steps == 0) {
    return ErrorReply{ErrorCode::kBadRequest, "steps/trials must be >= 1"}
        .encode();
  }
  if (spec.kind == JobKind::kRun &&
      optipar::make_controller(spec.controller, ControllerParams{}) ==
          nullptr) {
    return ErrorReply{ErrorCode::kBadRequest,
                      "unknown controller '" + spec.controller + "'"}
        .encode();
  }
  if (spec.kind == JobKind::kRun &&
      !sched::parse_backend(spec.scheduler)) {
    return ErrorReply{ErrorCode::kBadRequest,
                      "unknown scheduler '" + spec.scheduler +
                          "' (random|chromatic)"}
        .encode();
  }
  // Resolve server defaults at submit time so the WAL records the job's
  // EFFECTIVE deadline and cadence — a restart must not re-resolve them
  // against a possibly different server configuration.
  if (spec.timeout_ms == 0) spec.timeout_ms = config_.default_timeout_ms;
  if (spec.checkpoint_every == 0) {
    spec.checkpoint_every = config_.checkpoint_every;
  }

  std::lock_guard<std::mutex> lock(jobs_mutex_);
  if (queue_->closed()) {
    return ErrorReply{ErrorCode::kShuttingDown, "server is shutting down"}
        .encode();
  }
  if (queue_->depth() >= config_.queue_capacity) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return OverloadedReply{queue_->depth(), config_.queue_capacity}.encode();
  }
  spec.id = next_job_id_++;
  // Write-ahead: the submission is durable BEFORE the client can observe
  // kJobAccepted, so an accepted job survives any later crash.
  WalRecord rec;
  rec.kind = WalRecordKind::kSubmitted;
  rec.spec = spec;
  const std::uint64_t submit_ns = monotonic_ns();
  wal_->append(encode_wal_record(rec));
  auto job = std::make_shared<Job>();
  job->spec = spec;
  job->submit_ns = submit_ns;
  job->wal_fsync_ns = monotonic_ns();
  jobs_[spec.id] = job;
  queue_->readmit(spec.id);  // capacity was checked above, same lock
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return JobAcceptedReply{spec.id}.encode();
}

std::vector<std::byte> Server::handle_status(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return ErrorReply{ErrorCode::kUnknownJob,
                      "no job " + std::to_string(job_id)}
        .encode();
  }
  const Job& job = *it->second;
  JobStatusReply reply;
  reply.job = job_id;
  reply.state = job.state.load(std::memory_order_acquire);
  reply.kind = job.spec.kind;
  reply.rounds = job.result.rounds;
  reply.committed = job.result.committed;
  reply.pending = job.result.pending;
  reply.wasted = job.result.wasted;
  reply.mean_r = job.result.mean_r;
  reply.mu = job.result.mu;
  reply.resumed = job.resumed;
  reply.error = job.result.error;
  reply.scheduler = job.spec.scheduler;
  reply.verified = job.result.verified;
  reply.cert = job.result.cert;
  return reply.encode();
}

std::vector<std::byte> Server::handle_trace(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return ErrorReply{ErrorCode::kUnknownJob,
                      "no job " + std::to_string(job_id)}
        .encode();
  }
  const auto tr = artifacts_.find(job_id);
  if (tr == artifacts_.end() || tr->second.jsonl.empty()) {
    return ErrorReply{ErrorCode::kBadRequest,
                      "trace unavailable (job still running, recovered "
                      "from a previous incarnation, or evicted)"}
        .encode();
  }
  return TextReply{tr->second.jsonl}.encode();
}

std::vector<std::byte> Server::handle_artifact(std::uint64_t job_id,
                                               ArtifactKind kind) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return ErrorReply{ErrorCode::kUnknownJob,
                      "no job " + std::to_string(job_id)}
        .encode();
  }
  const auto art = artifacts_.find(job_id);
  const std::string* text = nullptr;
  if (art != artifacts_.end()) {
    switch (kind) {
      case ArtifactKind::kTraceJsonl: text = &art->second.jsonl; break;
      case ArtifactKind::kTraceChrome: text = &art->second.chrome; break;
      case ArtifactKind::kMetricsJson:
        text = &art->second.metrics_json;
        break;
    }
  }
  if (text == nullptr || text->empty()) {
    return ErrorReply{ErrorCode::kBadRequest,
                      std::string(artifact_kind_name(kind)) +
                          " unavailable (job still running, not a run "
                          "job, recovered, or evicted)"}
        .encode();
  }
  return TextReply{*text}.encode();
}

std::vector<std::byte> Server::handle_cancel(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return ErrorReply{ErrorCode::kUnknownJob,
                      "no job " + std::to_string(job_id)}
        .encode();
  }
  const JobState s = it->second->state.load(std::memory_order_acquire);
  if (s != JobState::kQueued && s != JobState::kRunning) {
    return OkReply{"job already terminal: " +
                   std::string(job_state_name(s))}
        .encode();
  }
  it->second->cancel.store(true, std::memory_order_release);
  return OkReply{"cancel requested"}.encode();
}

std::vector<std::byte> Server::handle_server_status() {
  ServerInfoReply reply;
  reply.queued = queue_->depth();
  reply.active = active_count_.load(std::memory_order_acquire);
  reply.capacity = config_.queue_capacity;
  reply.submitted = submitted_.load(std::memory_order_relaxed);
  reply.rejected = rejected_.load(std::memory_order_relaxed);
  reply.completed = completed_.load(std::memory_order_relaxed);
  reply.failed = failed_.load(std::memory_order_relaxed);
  reply.cancelled = cancelled_.load(std::memory_order_relaxed);
  reply.timed_out = timed_out_.load(std::memory_order_relaxed);
  reply.resumed = resumed_.load(std::memory_order_relaxed);
  reply.certified = certified_.load(std::memory_order_relaxed);
  reply.cert_failed = cert_failed_.load(std::memory_order_relaxed);
  reply.lanes = config_.threads;
  reply.draining = draining_.load(std::memory_order_acquire) ||
                   queue_->closed();
  return reply.encode();
}

std::vector<std::byte> Server::handle_metrics(const std::string& format) {
  if (format != "prometheus" && format != "json") {
    return ErrorReply{ErrorCode::kBadRequest,
                      "unknown format '" + format + "' (prometheus|json)"}
        .encode();
  }
  MetricsRegistry reg;
  using Type = MetricsRegistry::Type;
  reg.add("optipar_serve_queue_depth", Type::kGauge,
          "Jobs waiting for admission", {},
          static_cast<double>(queue_->depth()));
  reg.add("optipar_serve_queue_capacity", Type::kGauge,
          "Admission queue capacity", {},
          static_cast<double>(config_.queue_capacity));
  reg.add("optipar_serve_active_jobs", Type::kGauge,
          "Jobs currently multiplexed by the scheduler", {},
          static_cast<double>(active_count_.load(std::memory_order_acquire)));
  reg.add("optipar_serve_submitted_total", Type::kCounter,
          "Jobs accepted through admission", {},
          static_cast<double>(submitted_.load(std::memory_order_relaxed)));
  reg.add("optipar_serve_rejected_total", Type::kCounter,
          "Submissions refused with kOverloaded backpressure", {},
          static_cast<double>(rejected_.load(std::memory_order_relaxed)));
  reg.add("optipar_serve_completed_total", Type::kCounter,
          "Jobs finished successfully", {},
          static_cast<double>(completed_.load(std::memory_order_relaxed)));
  reg.add("optipar_serve_failed_total", Type::kCounter,
          "Jobs quarantined as failed", {},
          static_cast<double>(failed_.load(std::memory_order_relaxed)));
  reg.add("optipar_serve_cancelled_total", Type::kCounter,
          "Jobs cancelled by clients", {},
          static_cast<double>(cancelled_.load(std::memory_order_relaxed)));
  reg.add("optipar_serve_timed_out_total", Type::kCounter,
          "Jobs interrupted by their deadline", {},
          static_cast<double>(timed_out_.load(std::memory_order_relaxed)));
  reg.add("optipar_serve_resumed_total", Type::kCounter,
          "Jobs resumed from checkpoints after a restart", {},
          static_cast<double>(resumed_.load(std::memory_order_relaxed)));
  reg.add("optipar_serve_certified_total", Type::kCounter,
          "Verify jobs whose result certificate held", {},
          static_cast<double>(certified_.load(std::memory_order_relaxed)));
  reg.add("optipar_serve_cert_failed_total", Type::kCounter,
          "Verify jobs refuted by the result certifier", {},
          static_cast<double>(cert_failed_.load(std::memory_order_relaxed)));
  {
    // Serve latency histograms (DESIGN.md §15): log-bucketed, with
    // quantile-summary gauges — the optipar.metrics.v2 additions.
    std::lock_guard<std::mutex> lock(lat_mutex_);
    lat_admission_.export_metrics(reg, "optipar_serve_admission_wait",
                                  "Job admission wait (accept to activate)");
    lat_first_round_.export_metrics(
        reg, "optipar_serve_time_to_first_round",
        "Activation to the end of the job's first round");
    lat_round_.export_metrics(reg, "optipar_serve_round_latency",
                              "Per-round scheduler step latency");
    lat_e2e_.export_metrics(reg, "optipar_serve_job_duration",
                            "End-to-end job time (accept to terminal)");
  }
  std::ostringstream os;
  if (format == "json") {
    reg.render_json(os);
  } else {
    reg.render_prometheus(os);
  }
  return TextReply{os.str()}.encode();
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

void Server::finish_job(const std::shared_ptr<Job>& job, JobState state,
                        JobResult result, JobArtifacts artifacts) {
  if (job->submit_ns != 0) {
    std::lock_guard<std::mutex> lock(lat_mutex_);
    lat_e2e_.record_ns(monotonic_ns() - job->submit_ns);
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    job->result = result;
    job->state.store(state, std::memory_order_release);
    WalRecord rec;
    rec.kind = WalRecordKind::kFinished;
    rec.id = job->spec.id;
    rec.final_state = state;
    rec.result = result;
    try {
      wal_->append(encode_wal_record(rec));
    } catch (const std::exception& e) {
      // Disk trouble must not take the daemon down; worst case the job
      // re-runs after a restart (it is still resumable, never lost).
      std::cerr << "optipar_serve: WAL append failed for job "
                << job->spec.id << ": " << e.what() << "\n";
    }
    if (!artifacts.jsonl.empty() || !artifacts.chrome.empty() ||
        !artifacts.metrics_json.empty()) {
      artifacts_[job->spec.id] = std::move(artifacts);
      artifact_order_.push_back(job->spec.id);
      while (artifact_order_.size() > config_.trace_cache) {
        artifacts_.erase(artifact_order_.front());
        artifact_order_.pop_front();
      }
    }
  }
  switch (state) {
    case JobState::kDone:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobState::kFailed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobState::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobState::kTimedOut:
      timed_out_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
  remove_job_dir(job_dir(job->spec.id));
}

void Server::activate(std::uint64_t job_id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return;
    job = it->second;
  }
  if (job->cancel.load(std::memory_order_acquire)) {
    finish_job(job, JobState::kCancelled, {}, {});
    return;
  }
  job->state.store(JobState::kRunning, std::memory_order_release);
  job->activate_ns = monotonic_ns();
  if (job->submit_ns != 0) {
    std::lock_guard<std::mutex> lock(lat_mutex_);
    lat_admission_.record_ns(job->activate_ns - job->submit_ns);
  }
  const JobSpec& spec = job->spec;
  try {
    // Load the graph through the validated reader: the daemon's own state
    // dir is treated as hostile input, like every other on-disk artifact.
    const auto bytes = snapshot::read_file_validated(graph_path(spec.graph));
    snapshot::Reader in(bytes);
    const std::string text = in.str();
    in.expect_end();

    if (spec.kind == JobKind::kEstimate) {
      // Estimates are short and deterministic: run synchronously, no
      // checkpoint. After a crash the replayed job re-runs from scratch
      // and lands on the same mu (same seed, same trials).
      std::istringstream is(text);
      const CsrGraph g = io::read_edge_list(is);
      Rng rng(spec.seed);
      Rng measure = rng.split();  // mirrors optipar_cli mu's stream split
      JobResult result;
      result.mu = find_mu(g, spec.rho, spec.steps, measure);
      finish_job(job, JobState::kDone, result, {});
      return;
    }

    auto aj = std::make_unique<ActiveJob>();
    aj->job = job;
    {
      std::istringstream is(text);
      aj->graph = io::read_edge_list(is);
    }
    ControllerParams params;
    params.rho = spec.rho;
    if (spec.m0 != 0) params.m0 = spec.m0;
    if (spec.m_max != 0) params.m_max = spec.m_max;
    aj->controller = optipar::make_controller(spec.controller, params);
    if (aj->controller == nullptr) {
      throw std::runtime_error("unknown controller '" + spec.controller +
                               "'");
    }
    // The job runs the same lock-only spec and executor seed (seed*11+3)
    // as `optipar_cli run`, so a one-lane daemon run traces
    // byte-identically to the CLI — the resume smoke test's ground truth.
    const auto backend = sched::parse_backend(spec.scheduler);
    if (!backend) {
      throw std::runtime_error("unknown scheduler '" + spec.scheduler + "'");
    }
    const CsrGraph* g = &aj->graph;
    const AppSpec app = lock_only_spec(*g);
    aj->exec = build_executor(*pool_, app, spec.seed * 11 + 3,
                              RoundOptions{.scheduler = *backend});
    aj->tel = std::make_unique<telemetry::RuntimeTelemetry>();
    aj->tel->set_target_rho(spec.rho);
    // Every run job is traced (DESIGN.md §15): the collector's pid is the
    // job id, so multiple jobs' exports stay distinguishable in Perfetto.
    // The admission wait and the WAL fsync happened before the collector
    // existed; record them retroactively from the Job's timestamps so the
    // exported timeline covers the job's whole daemon-side life.
    aj->spans = std::make_unique<telemetry::SpanCollector>(spec.id);
    if (job->submit_ns != 0) {
      telemetry::SpanRecord rec;
      rec.name = "admission-wait";
      rec.tid = 0;
      rec.start_ns = job->submit_ns;
      rec.end_ns = job->activate_ns;
      rec.a = spec.id;
      aj->spans->record(rec);
      if (job->wal_fsync_ns >= job->submit_ns) {
        rec.name = "wal-fsync";
        rec.end_ns = job->wal_fsync_ns;
        aj->spans->record(rec);
      }
    }
    aj->job_span = aj->spans->begin("job", 0, spec.id, spec.steps);
    aj->tel->set_spans(aj->spans.get());
    aj->exec->set_telemetry(aj->tel.get());

    const std::string dir = job_dir(spec.id);
    make_dir(dir);
    if (!job->recovered) {
      // Fresh submission: job ids are never reused, but scrub anyway so a
      // stale directory can never be silently resumed (same discipline as
      // the CLI's non---resume path).
      for (const char* f : {"/snap-a.bin", "/snap-b.bin", "/journal.bin",
                            "/snap-a.bin.tmp", "/snap-b.bin.tmp"}) {
        std::remove((dir + f).c_str());
      }
    }
    CheckpointConfig ccfg;
    ccfg.dir = dir;
    ccfg.every = spec.checkpoint_every;
    aj->checkpoint =
        std::make_unique<CheckpointManager>(ccfg, graph_fingerprint(*g));
    aj->checkpoint->set_telemetry(aj->tel.get());

    AdaptiveRunConfig rcfg;
    rcfg.max_rounds = spec.steps;
    rcfg.before_round = app.before_round;
    rcfg.checkpoint = aj->checkpoint.get();
    rcfg.deadline = JobDeadline::after_ms(spec.timeout_ms);
    rcfg.cancel = &job->cancel;
    if (spec.verify) {
      // Post-run attestation: every task accounted for and no lock leaks,
      // checked once when the drain is observed. The verdict is read in
      // the scheduler's finished branch and made durable in the WAL.
      SpeculativeExecutor* ex = aj->exec.get();
      rcfg.certifier = [ex, total = static_cast<std::uint64_t>(
                                g->num_nodes())] {
        return verify::certify_drained_run(*ex, total);
      };
    }
    aj->run =
        std::make_unique<AdaptiveRun>(*aj->exec, *aj->controller, rcfg);
    if (aj->run->resumed()) {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      job->resumed = true;
      resumed_.fetch_add(1, std::memory_order_relaxed);
    }
    active_.push_back(std::move(aj));
    active_count_.store(active_.size(), std::memory_order_release);
  } catch (const std::exception& e) {
    // Poisoned job: quarantine it with its error durable in the WAL; the
    // scheduler — and every neighbor job — keeps running.
    JobResult result;
    result.error = e.what();
    finish_job(job, JobState::kFailed, result, {});
  }
}

void Server::scheduler_loop() {
  for (;;) {
    if (stop_now_.load(std::memory_order_acquire)) break;
    const bool draining = draining_.load(std::memory_order_acquire);

    // Fill free slots. Block briefly only when idle; with jobs active the
    // pop must not add latency to their rounds.
    while (active_.size() < config_.max_active) {
      const auto wait = active_.empty() ? 100ms : 0ms;
      const auto id = queue_->pop_for(wait);
      if (!id) break;
      activate(*id);
    }
    if (active_.empty()) {
      if (draining && queue_->depth() == 0) break;  // drained clean
      continue;
    }

    // Graceful degradation: divide the pool's lanes over the active jobs
    // (floor 1) so admission bursts shrink per-job parallelism instead of
    // oversubscribing the pool. Applied between rounds, as required.
    const std::size_t lanes = std::max<std::size_t>(
        1, config_.threads / active_.size());
    for (auto& aj : active_) {
      if (aj->lanes != lanes) {
        PipelineConfig pc;
        pc.max_lanes = lanes;
        aj->exec->set_pipeline(pc);
        aj->lanes = lanes;
      }
    }

    // Step every active job one slice, round-robin. Each step() boundary
    // is a deadline / cancellation / checkpoint point.
    for (auto it = active_.begin(); it != active_.end();) {
      ActiveJob& aj = **it;
      bool finished = false;
      try {
        for (std::uint32_t i = 0; i < config_.rounds_per_slice; ++i) {
          const std::uint64_t t0 = monotonic_ns();
          if (!aj.run->step()) {
            finished = true;
            break;
          }
          const std::uint64_t now = monotonic_ns();
          std::lock_guard<std::mutex> lock(lat_mutex_);
          lat_round_.record_ns(now - t0);
          if (!aj.first_step_done) {
            aj.first_step_done = true;
            lat_first_round_.record_ns(now - aj.job->activate_ns);
          }
        }
      } catch (const JobInterrupted& e) {
        const JobState state =
            e.reason() == JobInterrupted::Reason::kDeadline
                ? JobState::kTimedOut
                : JobState::kCancelled;
        JobResult result;
        result.rounds = e.partial_trace.steps.size();
        result.committed = e.partial_trace.total_committed();
        result.pending = aj.exec->pending();
        result.wasted = e.partial_trace.wasted_fraction();
        result.mean_r = e.partial_trace.mean_conflict_ratio();
        result.error = e.what();
        std::ostringstream os;
        write_trace_jsonl(os, e.partial_trace);
        finish_job(aj.job, state, result,
                   collect_artifacts(os.str(), *aj.tel, *aj.spans,
                                     aj.job_span));
        it = active_.erase(it);
        active_count_.store(active_.size(), std::memory_order_release);
        continue;
      } catch (const LivelockError& e) {
        JobResult result;
        result.rounds = e.partial_trace.steps.size();
        result.committed = e.partial_trace.total_committed();
        result.pending = e.pending();
        result.wasted = e.partial_trace.wasted_fraction();
        result.mean_r = e.partial_trace.mean_conflict_ratio();
        result.error = e.what();
        std::ostringstream os;
        write_trace_jsonl(os, e.partial_trace);
        finish_job(aj.job, JobState::kFailed, result,
                   collect_artifacts(os.str(), *aj.tel, *aj.spans,
                                     aj.job_span));
        it = active_.erase(it);
        active_count_.store(active_.size(), std::memory_order_release);
        continue;
      } catch (const std::exception& e) {
        // Poisoned operator / snapshot IO / anything else: quarantine the
        // job, keep the daemon and its neighbors alive.
        JobResult result;
        result.rounds = aj.run->trace().steps.size();
        result.committed = aj.run->trace().total_committed();
        result.error = e.what();
        // No partial trace rode the exception, but the spans and metrics
        // up to the poisoning round are still worth keeping.
        finish_job(aj.job, JobState::kFailed, result,
                   collect_artifacts({}, *aj.tel, *aj.spans, aj.job_span));
        it = active_.erase(it);
        active_count_.store(active_.size(), std::memory_order_release);
        continue;
      }
      if (finished) {
        // step() certified at the drain observation (AdaptiveRun's certify
        // hook); the direct call covers the max_rounds stop, where no step
        // ever sees finished() flip.
        aj.run->ensure_certified();
        const Trace trace = aj.run->take_trace();
        JobResult result;
        result.rounds = trace.steps.size();
        result.committed = trace.total_committed();
        result.pending = aj.exec->pending();
        result.wasted = trace.wasted_fraction();
        result.mean_r = trace.mean_conflict_ratio();
        JobState final_state = JobState::kDone;
        if (aj.job->spec.verify) {
          const auto& cert = aj.run->certificate();
          if (cert.has_value() && cert->ok()) {
            result.verified = 1;
            result.cert = cert->describe();
            certified_.fetch_add(1, std::memory_order_relaxed);
          } else {
            // Refuted (or never produced — itself a defect): the answer
            // must not be served as kDone.
            result.verified = 2;
            result.cert =
                cert.has_value() ? cert->describe() : "no certificate";
            result.error = "certification failed: " + result.cert;
            final_state = JobState::kFailed;
            cert_failed_.fetch_add(1, std::memory_order_relaxed);
          }
        }
        std::ostringstream os;
        write_trace_jsonl(os, trace);
        telemetry::write_events_jsonl(os, aj.tel->drain_events());
        finish_job(aj.job, final_state, result,
                   collect_artifacts(os.str(), *aj.tel, *aj.spans,
                                     aj.job_span));
        it = active_.erase(it);
        active_count_.store(active_.size(), std::memory_order_release);
      } else {
        // Progress visible to status polls without touching the run from
        // other threads.
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        const Trace& tr = aj.run->trace();
        aj.job->result.rounds = tr.steps.size();
        aj.job->result.committed = tr.total_committed();
        aj.job->result.pending = aj.exec->pending();
        ++it;
      }
    }
  }

  // Immediate shutdown with jobs still active: force one snapshot at the
  // current round boundary and abandon. The WAL holds their kSubmitted
  // records with no kFinished, so the next incarnation re-admits them and
  // AdaptiveRun resumes each from this exact boundary.
  for (auto& aj : active_) {
    try {
      aj->run->checkpoint_now();
    } catch (const std::exception& e) {
      std::cerr << "optipar_serve: shutdown checkpoint failed for job "
                << aj->job->spec.id << ": " << e.what() << "\n";
    }
    aj->job->state.store(JobState::kQueued, std::memory_order_release);
  }
  active_.clear();
  active_count_.store(0, std::memory_order_release);
}

}  // namespace optipar::serve
