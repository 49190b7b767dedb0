// optipar_serve: the scheduler daemon (DESIGN.md §13) and its client CLI.
//
//   optipar_serve serve    --socket S --state-dir D [capacity/threads ...]
//   optipar_serve upload   --socket S --name g --graph file.txt
//   optipar_serve run      --socket S --graph g [job knobs] [--wait]
//   optipar_serve estimate --socket S --graph g [--rho ...] [--wait]
//   optipar_serve status|trace|cancel --socket S --job N
//   optipar_serve artifact --socket S --job N [--kind K] [--out F]
//   optipar_serve health|server-status|metrics|shutdown --socket S
//
// Exit codes (shared taxonomy with optipar_cli, documented in README.md):
//   0 ok · 1 runtime error · 2 usage · 3 graph I/O error · 4 snapshot/
//   state error · 6 deadline exceeded · 7 overloaded (typed backpressure)
//   · 8 certification refuted (--verify job failed its result certificate).
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <variant>

#include "graph/graph_io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/options.hpp"
#include "support/snapshot/snapshot.hpp"

namespace {

using namespace optipar;
using namespace optipar::serve;

// Exit codes shared with optipar_cli (see README.md "Exit codes").
enum ExitCode : int {
  kExitOk = 0,
  kExitError = 1,
  kExitUsage = 2,
  kExitGraphIo = 3,
  kExitSnapshot = 4,
  kExitDeadline = 6,
  kExitOverloaded = 7,
  kExitCertification = 8,
};

int usage() {
  std::cerr <<
      "usage: optipar_serve <serve|upload|run|estimate|status|trace|"
      "artifact|cancel|health|server-status|metrics|shutdown> [--options]\n"
      "  serve   --socket=S --state-dir=D [--threads=N] [--capacity=N]\n"
      "          [--max-active=N] [--default-timeout-ms=N]\n"
      "          [--checkpoint-every=N]\n"
      "  upload  --socket=S --name=NAME --graph=FILE\n"
      "  run     --socket=S --graph=NAME [--controller=hybrid] [--rho=R]\n"
      "          [--seed=N] [--steps=N] [--m0=N] [--m-max=N]\n"
      "          [--timeout-ms=N] [--checkpoint-every=N] [--wait]\n"
      "          [--scheduler=random|chromatic] [--verify]\n"
      "          [--trace-out=F] [--trace-chrome=F] [--metrics-out=F]\n"
      "          (artifact flags require --wait)\n"
      "  estimate --socket=S --graph=NAME [--rho=R] [--trials=N]\n"
      "          [--seed=N] [--wait]\n"
      "  status|trace|cancel --socket=S --job=N\n"
      "  artifact --socket=S --job=N [--out=F]\n"
      "          [--kind=trace-jsonl|trace-chrome|metrics-json]\n"
      "  health|server-status|shutdown [--drain] --socket=S\n"
      "  metrics --socket=S [--format=prometheus|json]\n";
  return kExitUsage;
}

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int) { g_signal = 1; }

Client connect_client(const Options& opt) {
  return Client::connect(opt.get("socket", "optipar.sock"),
                         static_cast<int>(opt.get_int("io-timeout-ms", 0)));
}

int cmd_serve(const Options& opt) {
  ServerConfig config;
  config.socket_path = opt.get("socket", "optipar.sock");
  config.state_dir = opt.get("state-dir", "optipar-state");
  config.threads = static_cast<std::size_t>(opt.get_int("threads", 4));
  config.queue_capacity =
      static_cast<std::size_t>(opt.get_int("capacity", 16));
  config.max_active =
      static_cast<std::size_t>(opt.get_int("max-active", 2));
  config.max_connections =
      static_cast<std::size_t>(opt.get_int("max-connections", 64));
  config.default_timeout_ms = opt.get_int("default-timeout-ms", 0);
  config.checkpoint_every =
      static_cast<std::uint32_t>(opt.get_int("checkpoint-every", 8));
  config.rounds_per_slice =
      static_cast<std::uint32_t>(opt.get_int("rounds-per-slice", 8));

  Server server(config);
  server.start();
  std::cout << "optipar_serve: listening on " << config.socket_path
            << " state=" << config.state_dir
            << " threads=" << config.threads
            << " capacity=" << config.queue_capacity
            << " max_active=" << config.max_active
            << " recovered=" << server.recovered_jobs() << std::endl;

  // SIGTERM/SIGINT → graceful immediate shutdown: active jobs are
  // force-checkpointed and abandoned to the next incarnation (kill -9
  // skips even that, which is exactly what the WAL + checkpoint ladder
  // exist to survive).
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::thread watcher([&server] {
    while (g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.request_shutdown(/*drain=*/false);
  });
  server.wait();
  g_signal = 1;  // release the watcher if shutdown came over the wire
  watcher.join();
  std::cout << "optipar_serve: stopped" << std::endl;
  return kExitOk;
}

int cmd_upload(const Options& opt) {
  const std::string file = opt.get("graph", "");
  if (file.empty()) {
    std::cerr << "upload: --graph FILE is required\n";
    return kExitUsage;
  }
  std::ifstream is(file);
  if (!is) {
    std::cerr << "upload: cannot open " << file << "\n";
    return kExitGraphIo;
  }
  std::ostringstream text;
  text << is.rdbuf();
  auto client = connect_client(opt);
  const auto reply = client.upload_graph(
      opt.get("name", "default"), text.str());
  std::cout << reply.message << "\n";
  return kExitOk;
}

/// Write one fetched artifact to a file; kExitError when the daemon does
/// not hold it (evicted, recovered, or the job produced none).
int save_artifact(Client& client, std::uint64_t job, ArtifactKind kind,
                  const std::string& path) {
  try {
    const auto reply = client.artifact(job, kind);
    std::ofstream os(path);
    if (!os) {
      std::cerr << "cannot open " << path << "\n";
      return kExitError;
    }
    os << reply.text;
  } catch (const ServeError& e) {
    std::cerr << "artifact " << artifact_kind_name(kind) << ": " << e.what()
              << "\n";
    return kExitError;
  }
  return kExitOk;
}

int print_submit(Client& client, const Client::SubmitResult& result,
                 const Options& opt) {
  const bool wait = opt.get_bool("wait", false);
  const int budget_ms = static_cast<int>(opt.get_int("wait-ms", 120000));
  if (const auto* over = std::get_if<OverloadedReply>(&result)) {
    std::cerr << "overloaded: queue " << over->queue_depth << "/"
              << over->capacity << " (retry later)\n";
    return kExitOverloaded;
  }
  if (const auto* err = std::get_if<ErrorReply>(&result)) {
    std::cerr << "error [" << error_code_name(err->code)
              << "]: " << err->message << "\n";
    return err->code == ErrorCode::kBadRequest ? kExitUsage : kExitError;
  }
  const auto& accepted = std::get<JobAcceptedReply>(result);
  std::cout << "job=" << accepted.job << " accepted\n";
  if (!wait) return kExitOk;
  const auto status = client.wait_for_job(accepted.job, 20, budget_ms);
  std::cout << "job=" << status.job << " state="
            << job_state_name(status.state) << " rounds=" << status.rounds
            << " committed=" << status.committed << " pending="
            << status.pending << " mu=" << status.mu << " resumed="
            << (status.resumed ? 1 : 0);
  if (status.verified != 0) {
    std::cout << " verified=" << static_cast<int>(status.verified)
              << " cert=\"" << status.cert << '"';
  }
  if (!status.error.empty()) std::cout << " error=\"" << status.error << '"';
  std::cout << "\n";
  // Fetch any requested observability artifacts now that the job is
  // terminal; a fetch failure overrides an otherwise-ok exit code.
  int artifact_rc = kExitOk;
  if (opt.has("trace-out")) {
    artifact_rc = std::max(
        artifact_rc, save_artifact(client, accepted.job,
                                   ArtifactKind::kTraceJsonl,
                                   opt.get("trace-out", "")));
  }
  if (opt.has("trace-chrome")) {
    artifact_rc = std::max(
        artifact_rc, save_artifact(client, accepted.job,
                                   ArtifactKind::kTraceChrome,
                                   opt.get("trace-chrome", "")));
  }
  if (opt.has("metrics-out")) {
    artifact_rc = std::max(
        artifact_rc, save_artifact(client, accepted.job,
                                   ArtifactKind::kMetricsJson,
                                   opt.get("metrics-out", "")));
  }
  switch (status.state) {
    case JobState::kDone:
      return artifact_rc;
    case JobState::kTimedOut:
      return kExitDeadline;
    default:
      // A refuted certificate is its own typed outcome, distinguishable
      // from ordinary job failure by scripts.
      return status.verified == 2 ? kExitCertification : kExitError;
  }
}

int cmd_run(const Options& opt) {
  RunRequest req;
  req.graph = opt.get("graph", "default");
  req.controller = opt.get("controller", "hybrid");
  req.rho = opt.get_double("rho", 0.25);
  req.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  req.steps = static_cast<std::uint32_t>(opt.get_int("steps", 100000));
  req.m0 = static_cast<std::uint32_t>(opt.get_int("m0", 0));
  req.m_max = static_cast<std::uint32_t>(opt.get_int("m-max", 0));
  req.timeout_ms = opt.get_int("timeout-ms", 0);
  req.checkpoint_every =
      static_cast<std::uint32_t>(opt.get_int("checkpoint-every", 0));
  req.scheduler = opt.get("scheduler", "random");
  req.verify = opt.get_bool("verify", false);
  if ((opt.has("trace-out") || opt.has("trace-chrome") ||
       opt.has("metrics-out")) &&
      !opt.get_bool("wait", false)) {
    std::cerr << "run: --trace-out/--trace-chrome/--metrics-out require "
                 "--wait (artifacts exist only once the job is terminal)\n";
    return kExitUsage;
  }
  auto client = connect_client(opt);
  return print_submit(client, client.run(req), opt);
}

int cmd_estimate(const Options& opt) {
  EstimateRequest req;
  req.graph = opt.get("graph", "default");
  req.rho = opt.get_double("rho", 0.25);
  req.trials = static_cast<std::uint32_t>(opt.get_int("trials", 400));
  req.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  auto client = connect_client(opt);
  return print_submit(client, client.estimate(req), opt);
}

int cmd_status(const Options& opt) {
  auto client = connect_client(opt);
  const auto status = client.status(
      static_cast<std::uint64_t>(opt.get_int("job", 0)));
  std::cout << "job=" << status.job << " state="
            << job_state_name(status.state) << " rounds=" << status.rounds
            << " committed=" << status.committed << " pending="
            << status.pending << " wasted=" << status.wasted << " mean_r="
            << status.mean_r << " mu=" << status.mu << " resumed="
            << (status.resumed ? 1 : 0)
            << " scheduler=" << status.scheduler;
  if (status.verified != 0) {
    std::cout << " verified=" << static_cast<int>(status.verified)
              << " cert=\"" << status.cert << '"';
  }
  if (!status.error.empty()) std::cout << " error=\"" << status.error << '"';
  std::cout << "\n";
  return kExitOk;
}

int cmd_trace(const Options& opt) {
  auto client = connect_client(opt);
  const auto reply = client.trace(
      static_cast<std::uint64_t>(opt.get_int("job", 0)));
  if (opt.has("out")) {
    std::ofstream os(opt.get("out", ""));
    if (!os) {
      std::cerr << "cannot open --out=" << opt.get("out", "") << "\n";
      return kExitError;
    }
    os << reply.text;
  } else {
    std::cout << reply.text;
  }
  return kExitOk;
}

int cmd_artifact(const Options& opt) {
  const std::string kind_name = opt.get("kind", "trace-chrome");
  ArtifactKind kind;
  if (kind_name == "trace-jsonl") {
    kind = ArtifactKind::kTraceJsonl;
  } else if (kind_name == "trace-chrome") {
    kind = ArtifactKind::kTraceChrome;
  } else if (kind_name == "metrics-json") {
    kind = ArtifactKind::kMetricsJson;
  } else {
    std::cerr << "artifact: unknown --kind=" << kind_name
              << " (trace-jsonl|trace-chrome|metrics-json)\n";
    return kExitUsage;
  }
  auto client = connect_client(opt);
  const auto job = static_cast<std::uint64_t>(opt.get_int("job", 0));
  if (opt.has("out")) {
    return save_artifact(client, job, kind, opt.get("out", ""));
  }
  std::cout << client.artifact(job, kind).text;
  return kExitOk;
}

int cmd_cancel(const Options& opt) {
  auto client = connect_client(opt);
  const auto reply = client.cancel(
      static_cast<std::uint64_t>(opt.get_int("job", 0)));
  std::cout << reply.message << "\n";
  return kExitOk;
}

int cmd_health(const Options& opt) {
  auto client = connect_client(opt);
  std::cout << client.health().message << "\n";
  return kExitOk;
}

int cmd_server_status(const Options& opt) {
  auto client = connect_client(opt);
  const auto info = client.server_status();
  std::cout << "queued=" << info.queued << " active=" << info.active
            << " capacity=" << info.capacity << " submitted="
            << info.submitted << " rejected=" << info.rejected
            << " completed=" << info.completed << " failed=" << info.failed
            << " cancelled=" << info.cancelled << " timed_out="
            << info.timed_out << " resumed=" << info.resumed
            << " certified=" << info.certified
            << " cert_failed=" << info.cert_failed << " lanes="
            << info.lanes << " draining=" << (info.draining ? 1 : 0)
            << "\n";
  return kExitOk;
}

int cmd_metrics(const Options& opt) {
  auto client = connect_client(opt);
  std::cout << client.metrics(opt.get("format", "prometheus")).text;
  return kExitOk;
}

int cmd_shutdown(const Options& opt) {
  auto client = connect_client(opt);
  std::cout << client.shutdown(opt.get_bool("drain", false)).message
            << "\n";
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Options opt(argc - 1, argv + 1);
  try {
    if (command == "serve") return cmd_serve(opt);
    if (command == "upload") return cmd_upload(opt);
    if (command == "run") return cmd_run(opt);
    if (command == "estimate") return cmd_estimate(opt);
    if (command == "status") return cmd_status(opt);
    if (command == "trace") return cmd_trace(opt);
    if (command == "artifact") return cmd_artifact(opt);
    if (command == "cancel") return cmd_cancel(opt);
    if (command == "health") return cmd_health(opt);
    if (command == "server-status") return cmd_server_status(opt);
    if (command == "metrics") return cmd_metrics(opt);
    if (command == "shutdown") return cmd_shutdown(opt);
  } catch (const optipar::io::GraphIoError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitGraphIo;
  } catch (const optipar::snapshot::SnapshotError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitSnapshot;
  } catch (const ServeError& e) {
    std::cerr << "error [" << error_code_name(e.code()) << "]: " << e.what()
              << "\n";
    return kExitError;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitError;
  }
  return usage();
}
