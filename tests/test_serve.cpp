// In-process end-to-end tests of the serve daemon (DESIGN.md §13): the
// happy path, typed refusals, kOverloaded backpressure under a saturating
// submission burst, cancellation, poisoned-job quarantine, deadlines,
// drain shutdown, and the crash-recovery contract — immediate shutdown
// abandons an active job whose next incarnation resumes it and finishes
// with per-round output byte-identical to an uninterrupted run. The
// process-level kill -9 version of the last scenario lives in
// scripts/run_serve_smoke.sh; here the "crash" is Server teardown, which
// exercises the same WAL + checkpoint path without leaving the test
// runner.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "model/conflict_ratio.hpp"
#include "serve/client.hpp"
#include "support/rng.hpp"

namespace optipar::serve {
namespace {

using namespace std::chrono_literals;

constexpr int kIoTimeoutMs = 10000;

/// Fresh socket path + state dir per test (short paths: AF_UNIX limit).
struct TestPaths {
  explicit TestPaths(const std::string& name)
      : socket("/tmp/opsv_" + name + ".sock"),
        state("/tmp/opsv_" + name) {
    std::system(("rm -rf " + state).c_str());
    std::remove(socket.c_str());
  }
  std::string socket;
  std::string state;
};

std::string graph_text(NodeId n, std::uint32_t d) {
  const CsrGraph g = gen::union_of_cliques(n, d);
  std::ostringstream os;
  io::write_edge_list(g, os);
  return os.str();
}

Client connect(const TestPaths& paths) {
  return Client::connect(paths.socket, kIoTimeoutMs);
}

/// The `"type":"round"` lines of a trace — the byte-identity scope shared
/// with scripts/run_crash.sh (summary/telemetry lines may differ between an
/// interrupted and an uninterrupted run; the schedule must not).
std::vector<std::string> round_lines(const std::string& trace_text) {
  std::vector<std::string> out;
  std::istringstream is(trace_text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("\"type\":\"round\"") != std::string::npos) {
      out.push_back(line);
    }
  }
  return out;
}

JobStatusReply poll_until_running(Client& client, std::uint64_t job) {
  for (int i = 0; i < 20000; ++i) {
    const auto status = client.status(job);
    if (status.state != JobState::kQueued &&
        status.state != JobState::kRunning) {
      return status;  // already terminal — let the caller decide
    }
    if (status.state == JobState::kRunning && status.rounds >= 1) {
      return status;
    }
    std::this_thread::sleep_for(1ms);
  }
  throw std::runtime_error("job never started running");
}

// ---------------------------------------------------------------------------

TEST(Serve, HappyPathRunsAJobToCompletion) {
  const TestPaths paths("happy");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.state_dir = paths.state;
  config.threads = 1;
  Server server(config);
  server.start();
  EXPECT_EQ(server.recovered_jobs(), 0u);

  auto client = connect(paths);
  EXPECT_EQ(client.health().message, "ok");
  const auto uploaded = client.upload_graph("g1", graph_text(96, 5));
  EXPECT_FALSE(uploaded.message.empty());

  RunRequest req;
  req.graph = "g1";
  req.seed = 7;
  const auto result = client.run(req);
  const auto* accepted = std::get_if<JobAcceptedReply>(&result);
  ASSERT_NE(accepted, nullptr);
  const auto status = client.wait_for_job(accepted->job);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.kind, JobKind::kRun);
  EXPECT_EQ(status.committed, 96u);
  EXPECT_GT(status.rounds, 0u);
  EXPECT_FALSE(status.resumed);

  const auto trace = client.trace(accepted->job);
  EXPECT_EQ(round_lines(trace.text).size(), status.rounds);
  EXPECT_NE(trace.text.find("trace_summary"), std::string::npos);

  const auto info = client.server_status();
  EXPECT_EQ(info.submitted, 1u);
  EXPECT_EQ(info.completed, 1u);
  EXPECT_EQ(info.rejected, 0u);
  EXPECT_EQ(info.lanes, 1u);

  const auto metrics = client.metrics("prometheus");
  EXPECT_NE(metrics.text.find("optipar_serve_submitted_total"),
            std::string::npos);
  EXPECT_NE(metrics.text.find("optipar_serve_queue_depth"),
            std::string::npos);
  EXPECT_THROW((void)client.metrics("xml"), ServeError);

  server.request_shutdown(/*drain=*/false);
  server.wait();
}

TEST(Serve, EstimateJobMatchesDirectComputation) {
  const TestPaths paths("estimate");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.state_dir = paths.state;
  config.threads = 1;
  Server server(config);
  server.start();

  const std::string text = graph_text(96, 5);
  auto client = connect(paths);
  (void)client.upload_graph("g1", text);
  EstimateRequest req;
  req.graph = "g1";
  req.rho = 0.25;
  req.trials = 64;
  req.seed = 11;
  const auto result = client.estimate(req);
  const auto* accepted = std::get_if<JobAcceptedReply>(&result);
  ASSERT_NE(accepted, nullptr);
  const auto status = client.wait_for_job(accepted->job);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.kind, JobKind::kEstimate);

  // Same seed discipline as `optipar_cli mu`: the daemon must compute the
  // identical operating point.
  std::istringstream is(text);
  const CsrGraph g = io::read_edge_list(is);
  Rng rng(req.seed);
  Rng measure = rng.split();
  const std::uint32_t want = find_mu(g, req.rho, req.trials, measure);
  EXPECT_EQ(status.mu, want);

  server.request_shutdown(false);
  server.wait();
}

TEST(Serve, RefusalsAreTypedNotFatal) {
  const TestPaths paths("refusals");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.state_dir = paths.state;
  config.threads = 1;
  Server server(config);
  server.start();

  auto client = connect(paths);
  try {
    (void)client.status(999);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownJob);
  }
  try {
    (void)client.upload_graph("../escape", "p 1 0\n");
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
  try {
    (void)client.upload_graph("bad", "this is not a graph\n");
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
  {
    RunRequest req;
    req.graph = "never-uploaded";
    const auto result = client.run(req);
    const auto* err = std::get_if<ErrorReply>(&result);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, ErrorCode::kUnknownGraph);
  }
  (void)client.upload_graph("g1", graph_text(24, 5));
  {
    RunRequest req;
    req.graph = "g1";
    req.rho = 7.5;
    const auto result = client.run(req);
    const auto* err = std::get_if<ErrorReply>(&result);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, ErrorCode::kBadRequest);
  }
  {
    RunRequest req;
    req.graph = "g1";
    req.controller = "no-such-policy";
    const auto result = client.run(req);
    const auto* err = std::get_if<ErrorReply>(&result);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, ErrorCode::kBadRequest);
  }
  // After every refusal the daemon still serves.
  EXPECT_EQ(client.health().message, "ok");

  server.request_shutdown(false);
  server.wait();
}

TEST(Serve, OverloadShedsWithTypedBackpressureAndStaysHealthy) {
  // N submissions against capacity K < N: the surplus gets kOverloaded
  // (never a hang), health keeps answering, and every accepted job still
  // reaches a terminal state.
  const TestPaths paths("overload");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.state_dir = paths.state;
  config.threads = 1;
  config.queue_capacity = 1;
  config.max_active = 1;
  Server server(config);
  server.start();

  auto client = connect(paths);
  // Dense-conflict graph: many rounds at one lane, so the active slot stays
  // occupied for the whole submission burst.
  (void)client.upload_graph("big", graph_text(10200, 50));

  std::vector<std::uint64_t> accepted;
  std::size_t overloaded = 0;
  for (int i = 0; i < 8; ++i) {
    RunRequest req;
    req.graph = "big";
    req.seed = 100 + static_cast<std::uint64_t>(i);
    const auto result = client.run(req);
    if (const auto* ok = std::get_if<JobAcceptedReply>(&result)) {
      accepted.push_back(ok->job);
    } else if (std::get_if<OverloadedReply>(&result) != nullptr) {
      ++overloaded;
    } else {
      FAIL() << "unexpected ErrorReply during the burst";
    }
  }
  EXPECT_GE(accepted.size(), 1u);
  EXPECT_GE(overloaded, 1u) << "burst never hit the capacity bound";

  // Graceful degradation: the daemon answers health and status while
  // saturated.
  auto probe = connect(paths);
  EXPECT_EQ(probe.health().message, "ok");
  const auto info = probe.server_status();
  EXPECT_EQ(info.rejected, overloaded);
  EXPECT_EQ(info.capacity, 1u);

  // Shed the backlog and confirm nothing is wedged.
  for (const std::uint64_t job : accepted) (void)client.cancel(job);
  for (const std::uint64_t job : accepted) {
    const auto status = client.wait_for_job(job, 5, 120000);
    EXPECT_TRUE(status.state == JobState::kCancelled ||
                status.state == JobState::kDone)
        << job_state_name(status.state);
  }

  server.request_shutdown(false);
  server.wait();
}

TEST(Serve, CancelReachesQueuedAndRunningJobs) {
  const TestPaths paths("cancel");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.state_dir = paths.state;
  config.threads = 1;
  config.max_active = 1;
  Server server(config);
  server.start();

  auto client = connect(paths);
  (void)client.upload_graph("big", graph_text(10200, 50));

  RunRequest req;
  req.graph = "big";
  const auto first = client.run(req);
  const auto* running = std::get_if<JobAcceptedReply>(&first);
  ASSERT_NE(running, nullptr);
  const auto second = client.run(req);
  const auto* queued = std::get_if<JobAcceptedReply>(&second);
  ASSERT_NE(queued, nullptr);

  // Cancel the queued job first: it must terminate without ever running.
  (void)client.cancel(queued->job);
  (void)client.cancel(running->job);
  const auto s1 = client.wait_for_job(running->job, 5, 120000);
  const auto s2 = client.wait_for_job(queued->job, 5, 120000);
  EXPECT_TRUE(s1.state == JobState::kCancelled || s1.state == JobState::kDone)
      << job_state_name(s1.state);
  EXPECT_EQ(s2.state, JobState::kCancelled);
  EXPECT_EQ(s2.rounds, 0u);

  server.request_shutdown(false);
  server.wait();
}

TEST(Serve, DeadlineExpiryBecomesTimedOut) {
  const TestPaths paths("deadline");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.state_dir = paths.state;
  config.threads = 1;
  Server server(config);
  server.start();

  auto client = connect(paths);
  (void)client.upload_graph("big", graph_text(10200, 50));
  RunRequest req;
  req.graph = "big";
  req.timeout_ms = 1;
  const auto result = client.run(req);
  const auto* accepted = std::get_if<JobAcceptedReply>(&result);
  ASSERT_NE(accepted, nullptr);
  const auto status = client.wait_for_job(accepted->job, 5, 120000);
  EXPECT_EQ(status.state, JobState::kTimedOut);
  EXPECT_NE(status.error.find("deadline"), std::string::npos);

  server.request_shutdown(false);
  server.wait();
}

TEST(Serve, DeadlineExpiredJobStillServesArtifacts) {
  // Regression: a job cut down by its deadline (or cancelled) must still
  // retain its partial trace and metrics for kArtifact retrieval — the
  // observability of a failed run is worth the most.
  const TestPaths paths("dlart");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.state_dir = paths.state;
  config.threads = 1;
  Server server(config);
  server.start();

  auto client = connect(paths);
  (void)client.upload_graph("big", graph_text(10200, 50));
  RunRequest req;
  req.graph = "big";
  req.timeout_ms = 1;
  const auto result = client.run(req);
  const auto* accepted = std::get_if<JobAcceptedReply>(&result);
  ASSERT_NE(accepted, nullptr);
  const auto status = client.wait_for_job(accepted->job, 5, 120000);
  ASSERT_EQ(status.state, JobState::kTimedOut);

  const auto trace = client.artifact(accepted->job, ArtifactKind::kTraceJsonl);
  EXPECT_FALSE(trace.text.empty());
  if (status.rounds > 0) {
    // The rounds' telemetry events survive the interruption too.
    EXPECT_NE(trace.text.find("\"type\":\"event\""), std::string::npos);
  }
  const auto metrics =
      client.artifact(accepted->job, ArtifactKind::kMetricsJson);
  EXPECT_FALSE(metrics.text.empty());
  // The same metrics document `optipar_cli run` writes: executor totals
  // beside the per-lane counters they reconcile with.
  EXPECT_NE(metrics.text.find("\"optipar_committed_total\""),
            std::string::npos);

  server.request_shutdown(false);
  server.wait();
}

TEST(Serve, VerifyVerdictTravelsWithTheJobAndSurvivesRestart) {
  const TestPaths paths("verify");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.state_dir = paths.state;
  config.threads = 1;
  Server server(config);
  server.start();

  auto client = connect(paths);
  (void)client.upload_graph("g1", graph_text(96, 5));

  RunRequest verified_req;
  verified_req.graph = "g1";
  verified_req.verify = true;
  const auto v_result = client.run(verified_req);
  const auto* v_accepted = std::get_if<JobAcceptedReply>(&v_result);
  ASSERT_NE(v_accepted, nullptr);
  const auto v_status = client.wait_for_job(v_accepted->job);
  EXPECT_EQ(v_status.state, JobState::kDone);
  EXPECT_EQ(v_status.verified, 1u);
  EXPECT_EQ(v_status.cert, "ok");

  RunRequest plain_req;
  plain_req.graph = "g1";
  const auto p_result = client.run(plain_req);
  const auto* p_accepted = std::get_if<JobAcceptedReply>(&p_result);
  ASSERT_NE(p_accepted, nullptr);
  const auto p_status = client.wait_for_job(p_accepted->job);
  EXPECT_EQ(p_status.state, JobState::kDone);
  EXPECT_EQ(p_status.verified, 0u);
  EXPECT_TRUE(p_status.cert.empty());

  const auto info = client.server_status();
  EXPECT_EQ(info.certified, 1u);
  EXPECT_EQ(info.cert_failed, 0u);

  server.request_shutdown(false);
  server.wait();

  // The verdict is durable in the WAL's kFinished record: a restarted
  // daemon must answer status queries with the same certification fields.
  Server next(config);
  next.start();
  auto client2 = connect(paths);
  const auto replayed = client2.status(v_accepted->job);
  EXPECT_EQ(replayed.state, JobState::kDone);
  EXPECT_EQ(replayed.verified, 1u);
  EXPECT_EQ(replayed.cert, "ok");
  const auto info2 = client2.server_status();
  EXPECT_EQ(info2.certified, 1u);
  next.request_shutdown(false);
  next.wait();
}

TEST(Serve, PoisonedJobIsQuarantinedWithoutHarmingNeighbors) {
  const TestPaths paths("poison");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.state_dir = paths.state;
  config.threads = 1;
  Server server(config);
  server.start();

  auto client = connect(paths);
  (void)client.upload_graph("poison", graph_text(96, 5));
  (void)client.upload_graph("good", graph_text(96, 5));

  // Rot the stored graph on disk: activation must refuse the corrupt state
  // (the daemon treats its own state dir as untrusted) and quarantine the
  // job as kFailed instead of crashing or wedging the scheduler.
  {
    const std::string path = paths.state + "/graphs/poison.bin";
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 20, SEEK_SET);
    const char x = 0x5a;
    std::fwrite(&x, 1, 1, f);
    std::fclose(f);
  }

  RunRequest bad;
  bad.graph = "poison";
  const auto bad_result = client.run(bad);
  const auto* bad_accepted = std::get_if<JobAcceptedReply>(&bad_result);
  ASSERT_NE(bad_accepted, nullptr);
  const auto bad_status = client.wait_for_job(bad_accepted->job);
  EXPECT_EQ(bad_status.state, JobState::kFailed);
  EXPECT_FALSE(bad_status.error.empty());

  RunRequest good;
  good.graph = "good";
  const auto good_result = client.run(good);
  const auto* good_accepted = std::get_if<JobAcceptedReply>(&good_result);
  ASSERT_NE(good_accepted, nullptr);
  const auto good_status = client.wait_for_job(good_accepted->job);
  EXPECT_EQ(good_status.state, JobState::kDone);
  EXPECT_EQ(good_status.committed, 96u);

  server.request_shutdown(false);
  server.wait();
}

TEST(Serve, TwoSchedulerBackendsRunConcurrentlyWithDistinctLabels) {
  // One graph, two jobs in flight at once under different draw backends.
  // Both must finish, and each status reply must carry ITS job's scheduler
  // label — the label travels with the job, not the daemon.
  const TestPaths paths("twosched");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.state_dir = paths.state;
  config.threads = 2;
  config.max_active = 2;
  Server server(config);
  server.start();

  auto client = connect(paths);
  (void)client.upload_graph("g1", graph_text(960, 5));

  RunRequest random_req;
  random_req.graph = "g1";
  random_req.seed = 5;
  const auto random_result = client.run(random_req);
  const auto* random_job = std::get_if<JobAcceptedReply>(&random_result);
  ASSERT_NE(random_job, nullptr);

  RunRequest chromatic_req;
  chromatic_req.graph = "g1";
  chromatic_req.seed = 5;
  chromatic_req.scheduler = "chromatic";
  const auto chromatic_result = client.run(chromatic_req);
  const auto* chromatic_job =
      std::get_if<JobAcceptedReply>(&chromatic_result);
  ASSERT_NE(chromatic_job, nullptr);

  const auto random_status =
      client.wait_for_job(random_job->job, 5, 120000);
  const auto chromatic_status =
      client.wait_for_job(chromatic_job->job, 5, 120000);
  EXPECT_EQ(random_status.state, JobState::kDone);
  EXPECT_EQ(chromatic_status.state, JobState::kDone);
  EXPECT_EQ(random_status.committed, 960u);
  EXPECT_EQ(chromatic_status.committed, 960u);
  EXPECT_EQ(random_status.scheduler, "random");
  EXPECT_EQ(chromatic_status.scheduler, "chromatic");

  server.request_shutdown(false);
  server.wait();
}

TEST(Serve, UnknownSchedulerIsRefusedAtSubmit) {
  const TestPaths paths("badsched");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.state_dir = paths.state;
  config.threads = 1;
  Server server(config);
  server.start();

  auto client = connect(paths);
  (void)client.upload_graph("g1", graph_text(24, 5));
  // "relaxed" names the retired backend: refused like any unknown name.
  for (const char* name : {"round-robin", "relaxed"}) {
    SCOPED_TRACE(name);
    RunRequest req;
    req.graph = "g1";
    req.scheduler = name;
    const auto result = client.run(req);
    const auto* err = std::get_if<ErrorReply>(&result);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, ErrorCode::kBadRequest);
    EXPECT_NE(err->message.find(name), std::string::npos);
  }
  EXPECT_EQ(client.health().message, "ok");

  server.request_shutdown(false);
  server.wait();
}

TEST(Serve, DrainShutdownFinishesQueuedJobsAndRefusesNewOnes) {
  const TestPaths paths("drain");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.state_dir = paths.state;
  config.threads = 1;
  config.max_active = 1;
  Server server(config);
  server.start();

  auto client = connect(paths);
  (void)client.upload_graph("g1", graph_text(96, 5));
  std::vector<std::uint64_t> jobs;
  for (int i = 0; i < 3; ++i) {
    RunRequest req;
    req.graph = "g1";
    req.seed = static_cast<std::uint64_t>(i + 1);
    const auto result = client.run(req);
    const auto* accepted = std::get_if<JobAcceptedReply>(&result);
    ASSERT_NE(accepted, nullptr);
    jobs.push_back(accepted->job);
  }
  server.request_shutdown(/*drain=*/true);
  {
    RunRequest late;
    late.graph = "g1";
    const auto result = client.run(late);
    const auto* err = std::get_if<ErrorReply>(&result);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, ErrorCode::kShuttingDown);
  }
  server.wait();

  // Every pre-drain job finished: the next incarnation has nothing to
  // re-admit and remembers each terminal result from the WAL.
  Server second(config);
  second.start();
  EXPECT_EQ(second.recovered_jobs(), 0u);
  auto after = connect(paths);
  for (const std::uint64_t job : jobs) {
    const auto status = after.status(job);
    EXPECT_EQ(status.state, JobState::kDone) << "job " << job;
  }
  second.request_shutdown(false);
  second.wait();
}

TEST(Serve, ImmediateShutdownAbandonsThenResumesByteIdentically) {
  // The crash-recovery contract, in process: kill the daemon with a job
  // mid-run, restart on the same state dir, and the job must (a) be
  // re-admitted from the WAL, (b) resume from its forced checkpoint, and
  // (c) finish with per-round output byte-identical to the same spec run
  // uninterrupted at one lane.
  const TestPaths paths("resume");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.state_dir = paths.state;
  config.threads = 1;
  config.checkpoint_every = 2;
  RunRequest req;
  req.graph = "big";
  req.seed = 21;

  std::uint64_t interrupted_job = 0;
  {
    Server server(config);
    server.start();
    auto client = connect(paths);
    (void)client.upload_graph("big", graph_text(10200, 50));
    const auto result = client.run(req);
    const auto* accepted = std::get_if<JobAcceptedReply>(&result);
    ASSERT_NE(accepted, nullptr);
    interrupted_job = accepted->job;
    const auto status = poll_until_running(client, interrupted_job);
    ASSERT_EQ(status.state, JobState::kRunning)
        << "job finished before the shutdown could interrupt it";
    server.request_shutdown(/*drain=*/false);
    server.wait();
  }

  Server server(config);
  server.start();
  EXPECT_EQ(server.recovered_jobs(), 1u);
  auto client = connect(paths);
  const auto resumed = client.wait_for_job(interrupted_job, 5, 120000);
  EXPECT_EQ(resumed.state, JobState::kDone);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.committed, 10200u);
  const auto resumed_trace = client.trace(interrupted_job);

  // Uninterrupted reference: the identical spec as a fresh job.
  const auto ref_result = client.run(req);
  const auto* ref_accepted = std::get_if<JobAcceptedReply>(&ref_result);
  ASSERT_NE(ref_accepted, nullptr);
  const auto reference = client.wait_for_job(ref_accepted->job, 5, 120000);
  EXPECT_EQ(reference.state, JobState::kDone);
  EXPECT_FALSE(reference.resumed);
  const auto reference_trace = client.trace(ref_accepted->job);

  const auto got = round_lines(resumed_trace.text);
  const auto want = round_lines(reference_trace.text);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "round " << i;
  }
  EXPECT_EQ(resumed.rounds, reference.rounds);
  EXPECT_EQ(resumed.committed, reference.committed);

  server.request_shutdown(false);
  server.wait();
}

}  // namespace
}  // namespace optipar::serve
