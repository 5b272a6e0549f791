/// File-driven command-line front end — a thin client of
/// service::FusionService, chaining the library's persistence formats so
/// each pipeline stage can run as its own process:
///
///   crowdfusion_cli generate <claims.tsv> [books] [sources] [seed]
///       synthesize a Book dataset and write it in the TSV claim format
///   crowdfusion_cli fuse <claims.tsv> <joint-dir> [fuser]
///       run a machine-only fuser from the registry (crh, majority_vote,
///       accu, truthfinder, sums, averagelog, investment) and write one
///       joint file per book
///   crowdfusion_cli refine <claims.tsv> <joint-dir> [budget] [pc]
///                   [--async] [--threads N] [--max-in-flight M]
///                   [--latency-ms S] [--skip-failed]
///       run CrowdFusion rounds on every saved joint through the service
///       facade (simulated crowd seeded from the gold labels) and rewrite
///       the refined joints. Default: engine mode, one engine per book,
///       answers collected synchronously. --async serves every book from
///       ONE pipelined BudgetScheduler (global budget = budget x books, up
///       to M ticket batches in flight, crowd latency simulated at S ms
///       median); --skip-failed keeps serving when a ticket fails
///       terminally instead of aborting; --threads caps the selector's
///       preprocessing shards
///   crowdfusion_cli request <request.json>
///       parse a serialized FusionRequest, run it, and print the response
///       JSON to stdout — the full service boundary from the shell
///   crowdfusion_cli pipe [--max-in-flight M] [--threads T]
///       offline bulk fusion: stream newline-delimited FusionRequest JSON
///       from stdin, run up to M requests concurrently on T threads, and
///       print one compact response line per request to stdout IN INPUT
///       ORDER. A bad line yields a one-line crowdfusion-error-v1
///       envelope (with its input line number) instead of aborting the
///       stream; a books/sec + books/sec/core report goes to stderr on
///       exit
///   crowdfusion_cli serve [server flags] [--crowd-port M]
///                   [--record-trace FILE]
///       run the HTTP serving front-end (POST /v1/fusion:run, the
///       /v1/sessions endpoints, /healthz, /metricsz) until SIGTERM or
///       SIGINT, then shut down cleanly (exit 0). --crowd-port also
///       starts a loopback crowd platform on port M, so requests with
///       provider kind "http" and endpoint "127.0.0.1:M" exercise the
///       full client -> HTTP -> service -> HTTP -> crowd loop.
///       --record-trace appends every request to FILE in the
///       crowdfusion-trace-v1 JSONL format for later crowdfusion_loadgen
///       replay
///   crowdfusion_cli route --backends host:port,host:port [server flags]
///       run the net::Router front tier over N serve backends: session
///       traffic is consistent-hashed (ids become "s-1@key"), fusion:run
///       goes to the least-loaded backend, dead backends are ejected and
///       re-probed. Runs until SIGTERM/SIGINT, clean exit 0
///   crowdfusion_cli crowd [server flags]
///       run a standalone loopback crowd platform (the ticket wire the
///       "http"/"http_pool" providers speak) until SIGTERM/SIGINT — one
///       process per simulated crowd endpoint in multi-platform
///       topologies
///   crowdfusion_cli score <claims.tsv> <joint-dir>
///       compare the stored joints' marginals against the gold labels
///   crowdfusion_cli scenario <name>... | --all  [--out-dir DIR]
///       run named adversarial crowd scenarios (baseline, collusion,
///       sybil, spam, drift, streaming) across every machine-only fuser
///       and print — or, with --out-dir, write one <name>.json per
///       scenario — the deterministic golden-format report
///       (eval::ScenarioHarness; regenerate ci/scenario_goldens with
///       --all --out-dir ci/scenario_goldens)
///
/// Any unknown subcommand or flag prints usage to stderr and exits
/// nonzero (pinned by the CLI smoke tests). Diagnostics and progress
/// lines go to stderr; stdout carries only machine-readable output
/// (response JSON, score metrics, pipe responses) plus the serve/route/
/// crowd readiness lines that the e2e harness scrapes.
///
/// Example session:
///   ./crowdfusion_cli generate /tmp/books.tsv 20 16 7
///   ./crowdfusion_cli fuse /tmp/books.tsv /tmp/joints crh
///   ./crowdfusion_cli score /tmp/books.tsv /tmp/joints
///   ./crowdfusion_cli refine /tmp/books.tsv /tmp/joints 40 0.8
///   ./crowdfusion_cli score /tmp/books.tsv /tmp/joints

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "loadgen/trace.h"
#include "core/serialization.h"
#include "data/book_dataset.h"
#include "data/correlation_model.h"
#include "data/dataset_io.h"
#include "eval/metrics.h"
#include "eval/scenario.h"
#include "fusion/registry.h"
#include "net/loopback_crowd_server.h"
#include "net/router.h"
#include "net/server_config.h"
#include "service/bulk_pipe.h"
#include "service/fusion_service.h"
#include "service/http_frontend.h"
#include "service/request_json.h"

using namespace crowdfusion;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: crowdfusion_cli <command> ...\n"
      "  generate <claims.tsv> [books] [sources] [seed]\n"
      "  fuse     <claims.tsv> <joint-dir> [fuser]\n"
      "  refine   <claims.tsv> <joint-dir> [budget] [pc] [--async]\n"
      "           [--threads N] [--max-in-flight M] [--latency-ms S]\n"
      "           [--skip-failed]\n"
      "  request  <request.json>\n"
      "  pipe     [--max-in-flight M] [--threads T]\n"
      "  serve    [server flags] [--crowd-port M] [--record-trace FILE]\n"
      "  route    --backends host:port,host:port [server flags]\n"
      "  crowd    [server flags]\n"
      "  score    <claims.tsv> <joint-dir>\n"
      "  scenario <name>... | --all  [--out-dir DIR]\n"
      "server flags (serve, route, crowd — one config vocabulary):\n"
      "%s",
      net::ServerFlagUsage());
  return 2;
}

std::string JointPath(const std::string& dir, const data::Book& book) {
  return dir + "/" + book.isbn + ".joint";
}

int Fail(const common::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Rejects flag-looking arguments in commands that take none.
bool RejectFlags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag for this command: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 3 || argc > 6 || !RejectFlags(argc, argv, 2)) return Usage();
  data::BookDatasetOptions options;
  options.num_books = argc > 3 ? std::atoi(argv[3]) : 20;
  options.num_sources = argc > 4 ? std::atoi(argv[4]) : 16;
  options.seed = argc > 5 ? static_cast<uint64_t>(std::atoll(argv[5])) : 7;
  auto dataset = data::GenerateBookDataset(options);
  if (!dataset.ok()) return Fail(dataset.status());
  if (auto status = data::SaveBookDataset(*dataset, argv[2]); !status.ok()) {
    return Fail(status);
  }
  std::fprintf(stderr, "wrote %d claims on %d books (%d sources) to %s\n",
               dataset->claims.num_claims(), dataset->claims.num_entities(),
               dataset->claims.num_sources(), argv[2]);
  return 0;
}

int CmdFuse(int argc, char** argv) {
  if (argc < 4 || argc > 5 || !RejectFlags(argc, argv, 2)) return Usage();
  auto dataset = data::LoadBookDataset(argv[2]);
  if (!dataset.ok()) return Fail(dataset.status());

  fusion::FuserSpec spec;
  spec.kind = argc > 4 ? argv[4] : "crh";
  if (spec.kind == "majority") spec.kind = "majority_vote";  // legacy alias
  const fusion::FuserRegistry registry = fusion::BuiltinFuserRegistry();
  auto fuser = registry.Create(spec.kind, spec);
  if (!fuser.ok()) return Fail(fuser.status());
  std::fprintf(stderr, "fusing with %s...\n", (*fuser)->name().c_str());
  auto fused = (*fuser)->Fuse(dataset->claims);
  if (!fused.ok()) return Fail(fused.status());

  std::filesystem::create_directories(argv[3]);
  data::CorrelationModelOptions correlation;
  int written = 0;
  for (const data::Book& book : dataset->books) {
    if (book.statements.empty()) continue;
    std::vector<double> marginals;
    for (int vid : book.value_ids) {
      marginals.push_back(fused->value_probability[static_cast<size_t>(vid)]);
    }
    auto joint = data::BuildBookJoint(marginals, book.statements, correlation);
    if (!joint.ok()) return Fail(joint.status());
    if (auto status =
            core::SaveJointDistribution(*joint, JointPath(argv[3], book));
        !status.ok()) {
      return Fail(status);
    }
    ++written;
  }
  std::fprintf(stderr, "wrote %d joint files to %s\n", written, argv[3]);
  return 0;
}

int CmdRefine(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string joint_dir = argv[3];

  // Positional args first, then flags (the async serving knobs). Argument
  // errors are reported before any file I/O is attempted.
  int budget = 30;
  double pc = 0.8;
  bool use_async = false;
  bool skip_failed = false;
  int threads = 0;
  int max_in_flight = 4;
  double latency_ms = 5.0;
  int positional = 0;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--async") {
      use_async = true;
    } else if (arg == "--skip-failed") {
      skip_failed = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (arg == "--max-in-flight" && i + 1 < argc) {
      max_in_flight = std::atoi(argv[++i]);
    } else if (arg == "--latency-ms" && i + 1 < argc) {
      latency_ms = std::atof(argv[++i]);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown refine flag: %s\n", arg.c_str());
      return Usage();
    } else if (positional == 0) {
      budget = std::atoi(arg.c_str());
      ++positional;
    } else if (positional == 1) {
      pc = std::atof(arg.c_str());
      ++positional;
    } else {
      std::fprintf(stderr, "unexpected refine argument: %s\n", arg.c_str());
      return Usage();
    }
  }

  auto dataset = data::LoadBookDataset(argv[2]);
  if (!dataset.ok()) return Fail(dataset.status());

  // One typed request: the workload is the saved joints, the provider a
  // simulated crowd judging each book's gold labels; the mode flag flips
  // between the per-book engine loop and the pipelined scheduler.
  service::FusionRequest request;
  request.mode =
      use_async ? service::RunMode::kPipelined : service::RunMode::kEngine;
  request.assumed_pc = pc;
  request.selector.kind = "greedy";
  request.selector.use_pruning = true;
  request.selector.use_preprocessing = true;
  request.selector.preprocessing_threads = threads;
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = pc;
  request.provider.seed = 12000;
  if (use_async) {
    request.provider.latency_median_seconds = latency_ms / 1e3;
  }
  request.budget.budget_per_instance = budget;
  request.budget.tasks_per_step = 1;
  request.pipeline.max_in_flight = max_in_flight;
  request.pipeline.on_ticket_failure =
      skip_failed
          ? core::BudgetScheduler::TicketFailurePolicy::kSkipInstance
          : core::BudgetScheduler::TicketFailurePolicy::kAbort;

  std::vector<const data::Book*> books;
  for (const data::Book& book : dataset->books) {
    if (book.statements.empty()) continue;
    auto joint = core::LoadJointDistribution(JointPath(joint_dir, book));
    if (!joint.ok()) return Fail(joint.status());
    service::InstanceSpec instance;
    instance.name = book.isbn;
    instance.joint = std::move(joint).value();
    for (const data::Statement& s : book.statements) {
      instance.truths.push_back(s.is_true);
      instance.categories.push_back(static_cast<int>(s.category));
    }
    request.instances.push_back(std::move(instance));
    books.push_back(&book);
  }

  service::FusionService fusion_service;
  common::Stopwatch stopwatch;
  auto session = fusion_service.CreateSession(std::move(request));
  if (!session.ok()) return Fail(session.status());
  if (auto drained = (*session)->Drain(); !drained.ok()) {
    return Fail(drained);
  }
  const double wall_s = stopwatch.ElapsedSeconds();

  for (size_t i = 0; i < books.size(); ++i) {
    if (auto status = core::SaveJointDistribution(
            (*session)->joint(static_cast<int>(i)),
            JointPath(joint_dir, *books[i]));
        !status.ok()) {
      return Fail(status);
    }
  }
  const service::SessionProgress progress = (*session)->Poll();
  if (use_async) {
    std::fprintf(
        stderr,
        "refined %zu joints asynchronously: global budget %d, spent %d in "
        "%d steps, %.2fs wall (%.1f books/sec) at Pc=%.2f, max in flight "
        "%d, crowd latency %.1f ms median%s\n",
        books.size(), progress.total_budget, progress.total_cost_spent,
        progress.steps_completed, wall_s,
        static_cast<double>(books.size()) / std::max(wall_s, 1e-9), pc,
        max_in_flight, latency_ms,
        progress.dead_instances > 0
            ? common::StrFormat(" (%d instances skipped)",
                                progress.dead_instances)
                  .c_str()
            : "");
  } else {
    std::fprintf(stderr, "refined %zu joints with budget %d/book at Pc=%.2f\n",
                 books.size(), budget, pc);
  }
  return 0;
}

int CmdRequest(int argc, char** argv) {
  if (argc != 3 || !RejectFlags(argc, argv, 2)) return Usage();
  std::ifstream file(argv[2]);
  if (!file) {
    std::fprintf(stderr, "error: cannot open %s\n", argv[2]);
    return 1;
  }
  std::ostringstream text;
  text << file.rdbuf();
  auto request = service::ParseFusionRequest(text.str());
  if (!request.ok()) return Fail(request.status());
  service::FusionService fusion_service;
  auto response = fusion_service.Run(std::move(request).value());
  if (!response.ok()) return Fail(response.status());
  std::printf("%s\n", service::SerializeFusionResponse(*response).c_str());
  return 0;
}

int CmdPipe(int argc, char** argv) {
  service::BulkPipeOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-in-flight" && i + 1 < argc) {
      options.max_in_flight = std::atoi(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      options.threads = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown pipe flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (options.max_in_flight < 1) {
    std::fprintf(stderr, "--max-in-flight must be >= 1\n");
    return Usage();
  }
  service::FusionService fusion_service;
  auto stats =
      service::RunBulkPipe(fusion_service, std::cin, std::cout, options);
  if (!stats.ok()) return Fail(stats.status());
  const double cores =
      std::max(1u, std::thread::hardware_concurrency());
  std::fprintf(
      stderr,
      "pipe: %lld requests (%lld ok, %lld errors) in %.2fs — %.1f "
      "books/sec, %.2f books/sec/core (window %d, peak in flight %d)\n",
      static_cast<long long>(stats->requests),
      static_cast<long long>(stats->ok),
      static_cast<long long>(stats->errors), stats->wall_seconds,
      static_cast<double>(stats->books_completed) / stats->wall_seconds,
      static_cast<double>(stats->books_completed) / stats->wall_seconds /
          cores,
      options.max_in_flight, stats->peak_in_flight);
  return 0;
}

/// Set by SIGTERM/SIGINT; the serve loop polls it. Signal-handler-safe by
/// construction (lock-free flag, no allocation in the handler).
volatile std::sig_atomic_t g_shutdown = 0;

void HandleShutdownSignal(int) { g_shutdown = 1; }

int CmdServe(int argc, char** argv) {
  service::HttpFrontend::Options options;
  options.port = 8080;
  int crowd_port = -1;
  std::string trace_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--crowd-port" && i + 1 < argc) {
      crowd_port = std::atoi(argv[++i]);
    } else if (arg == "--record-trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      // The shared server-config vocabulary; anything it doesn't
      // recognize is a hard usage error (no silently ignored flags).
      auto applied = net::ApplyServerFlag(argc, argv, &i, &options);
      if (!applied.ok()) return Fail(applied.status());
      if (!*applied) {
        std::fprintf(stderr, "unknown serve flag: %s\n", arg.c_str());
        return Usage();
      }
    }
  }

  std::unique_ptr<loadgen::TraceRecorder> trace_recorder;
  if (!trace_path.empty()) {
    auto recorder = loadgen::TraceRecorder::Open(trace_path);
    if (!recorder.ok()) return Fail(recorder.status());
    trace_recorder = std::move(recorder).value();
    std::fprintf(stderr, "recording request trace to %s\n",
                 trace_path.c_str());
  }

  std::unique_ptr<net::LoopbackCrowdServer> crowd_server;
  if (crowd_port >= 0) {
    net::LoopbackCrowdServer::Options options;
    options.port = crowd_port;
    crowd_server = std::make_unique<net::LoopbackCrowdServer>(options);
    if (auto status = crowd_server->Start(); !status.ok()) {
      return Fail(status);
    }
    std::printf("crowd platform on http://%s\n",
                crowd_server->endpoint().c_str());
  }

  options.trace_recorder = trace_recorder.get();
  service::HttpFrontend frontend(options);
  if (auto status = frontend.Start(); !status.ok()) return Fail(status);
  // Handlers BEFORE the readiness line: once it prints, a harness may
  // SIGTERM at any moment and must always observe the clean exit 0.
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  // The e2e harness waits for this exact line before sending traffic.
  std::printf("serving on http://127.0.0.1:%d (threads %d, session TTL "
              "%.0f s)\n",
              frontend.port(), options.threads, options.session_ttl_seconds);
  std::fflush(stdout);
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  frontend.Stop();
  if (crowd_server != nullptr) crowd_server->Stop();
  if (trace_recorder != nullptr) {
    std::fprintf(stderr, "recorded %lld requests to %s\n",
                 static_cast<long long>(trace_recorder->records_written()),
                 trace_path.c_str());
  }
  std::printf("shut down cleanly\n");
  return 0;
}

int CmdRoute(int argc, char** argv) {
  net::Router::Options options;
  options.port = 8090;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto applied = net::ApplyServerFlag(argc, argv, &i, &options);
    if (!applied.ok()) return Fail(applied.status());
    if (!*applied) {
      std::fprintf(stderr, "unknown route flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (options.backends.empty()) {
    std::fprintf(stderr, "route requires --backends host:port[,host:port]\n");
    return Usage();
  }

  net::Router router(options);
  if (auto status = router.Start(); !status.ok()) return Fail(status);
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  // The e2e harness waits for this exact line before sending traffic.
  std::printf("routing on http://127.0.0.1:%d (%d backends, threads %d)\n",
              router.port(), static_cast<int>(options.backends.size()),
              options.threads);
  std::fflush(stdout);
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  router.Stop();
  std::printf("shut down cleanly\n");
  return 0;
}

int CmdCrowd(int argc, char** argv) {
  net::LoopbackCrowdServer::Options options;
  options.port = 8070;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto applied = net::ApplyServerFlag(argc, argv, &i, &options);
    if (!applied.ok()) return Fail(applied.status());
    if (!*applied) {
      std::fprintf(stderr, "unknown crowd flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  net::LoopbackCrowdServer server(options);
  if (auto status = server.Start(); !status.ok()) return Fail(status);
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  // The e2e harness waits for this exact line before sending traffic.
  std::printf("crowd platform on http://%s\n", server.endpoint().c_str());
  std::fflush(stdout);
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  std::printf("shut down cleanly\n");
  return 0;
}

int CmdScore(int argc, char** argv) {
  if (argc != 4 || !RejectFlags(argc, argv, 2)) return Usage();
  auto dataset = data::LoadBookDataset(argv[2]);
  if (!dataset.ok()) return Fail(dataset.status());
  eval::ConfusionCounts counts;
  double utility = 0.0;
  int books = 0;
  for (const data::Book& book : dataset->books) {
    if (book.statements.empty()) continue;
    auto joint = core::LoadJointDistribution(JointPath(argv[3], book));
    if (!joint.ok()) return Fail(joint.status());
    std::vector<bool> truths;
    for (const data::Statement& s : book.statements) {
      truths.push_back(s.is_true);
    }
    counts += eval::CountConfusion(joint->Marginals(), truths);
    utility += -joint->EntropyBits();
    ++books;
  }
  const eval::PrecisionRecallF1 prf = eval::ComputeF1(counts);
  std::printf(
      "%d books: precision %.4f, recall %.4f, F1 %.4f, total utility %.2f "
      "bits\n",
      books, prf.precision, prf.recall, prf.f1, utility);
  return 0;
}

int CmdScenario(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::vector<std::string> names;
  std::string out_dir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--all") {
      names = eval::ScenarioNames();
    } else if (arg == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag for this command: %s\n", argv[i]);
      return Usage();
    } else {
      names.push_back(arg);
    }
  }
  if (names.empty()) return Usage();
  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "error: cannot create %s: %s\n", out_dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }
  for (const std::string& name : names) {
    auto report = eval::RunScenario(name);
    if (!report.ok()) return Fail(report.status());
    const std::string text = eval::SerializeScenarioReport(*report);
    if (out_dir.empty()) {
      std::fputs(text.c_str(), stdout);
      continue;
    }
    const std::string path = out_dir + "/" + name + ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%d fusers)\n", path.c_str(),
                 static_cast<int>(report->fusers.size()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "generate") return CmdGenerate(argc, argv);
  if (command == "fuse") return CmdFuse(argc, argv);
  if (command == "refine") return CmdRefine(argc, argv);
  if (command == "request") return CmdRequest(argc, argv);
  if (command == "pipe") return CmdPipe(argc, argv);
  if (command == "serve") return CmdServe(argc, argv);
  if (command == "route") return CmdRoute(argc, argv);
  if (command == "crowd") return CmdCrowd(argc, argv);
  if (command == "score") return CmdScore(argc, argv);
  if (command == "scenario") return CmdScenario(argc, argv);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return Usage();
}
