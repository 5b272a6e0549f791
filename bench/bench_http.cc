/// HTTP serving bench (ISSUE 5 satellite): drives service::HttpFrontend
/// over loopback sockets with concurrent keep-alive clients and reports
/// requests/sec plus p50/p95 call latency for three traffic shapes —
/// /healthz (pure transport), POST /v1/fusion:run with a small engine
/// request (parse + serve + dump), and a create/step*/delete session
/// conversation. Emits BENCH_http.json (BenchReport schema v2:
/// `throughput_per_sec` requests/sec, `p50_ms`/`p95_ms` call latency,
/// `support` total requests, `k` client threads).
///
/// The optional fourth argument turns on the c10k section: the parent
/// forks client processes (the container's per-process fd ceiling cannot
/// hold both the server's and one client's sockets), each child opens its
/// share of keep-alive connections, and once every connection is
/// established the whole set is swept with pipelming-free request rounds.
/// The row lands as `c10k[conns=N]` (n = rounds, support = requests,
/// k = connections) and is throughput-floor-gated by
/// ci/check_bench_regression.py.
///
/// usage: bench_http [requests_per_thread] [threads] [report.json]
///                   [c10k_connections]

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_report.h"
#include "common/math_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "net/http_client.h"
#include "net/router.h"
#include "service/http_frontend.h"
#include "service/request_json.h"

using namespace crowdfusion;

namespace {

/// Small deterministic engine request: 2 books x 4 facts, scripted
/// provider, budget 4 — a few selector rounds per call, so fusion:run
/// measures serving overhead, not selector scaling.
std::string SmallRequestJson() {
  service::FusionRequest request;
  request.mode = service::RunMode::kEngine;
  request.label = "bench_http";
  for (int i = 0; i < 2; ++i) {
    service::InstanceSpec instance;
    instance.name = common::StrFormat("b%d", i);
    const std::vector<double> marginals = {0.35, 0.6, 0.45, 0.7};
    auto joint = core::JointDistribution::FromIndependentMarginals(marginals);
    CF_CHECK(joint.ok());
    instance.joint = std::move(joint).value();
    instance.truths = {true, false, true, false};
    request.instances.push_back(std::move(instance));
  }
  request.provider.kind = "scripted";
  request.provider.script = {true, false, true, false};
  request.budget.budget_per_instance = 4;
  return service::SerializeFusionRequest(request);
}

struct Shape {
  const char* name;
  /// Runs one logical call; returns HTTP calls made (>= 1) or 0 on error.
  int (*run)(net::HttpClient&, const std::string& body);
};

int RunHealthz(net::HttpClient& client, const std::string&) {
  auto response = client.Get("/healthz");
  return response.ok() && response->status_code == 200 ? 1 : 0;
}

int RunFusion(net::HttpClient& client, const std::string& body) {
  auto response = client.Post("/v1/fusion:run", body);
  return response.ok() && response->status_code == 200 ? 1 : 0;
}

int RunSessionConversation(net::HttpClient& client, const std::string& body) {
  auto created = client.Post("/v1/sessions", body);
  if (!created.ok() || created->status_code != 201) return 0;
  auto parsed = common::JsonValue::Parse(created->body);
  CF_CHECK(parsed.ok());
  const std::string id =
      parsed->Find("session_id")->GetString().value();
  int calls = 1;
  for (int i = 0; i < 16; ++i) {
    auto stepped = client.Post("/v1/sessions/" + id + "/step", "{}");
    if (!stepped.ok() || stepped->status_code != 200) return 0;
    ++calls;
    auto step_body = common::JsonValue::Parse(stepped->body);
    CF_CHECK(step_body.ok());
    if (step_body->Find("done")->GetBool().value()) break;
  }
  auto deleted = client.Delete("/v1/sessions/" + id);
  if (!deleted.ok() || deleted->status_code != 200) return 0;
  return calls + 1;
}

struct ShapeResult {
  double requests_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  int64_t requests = 0;
};

ShapeResult DriveShape(const Shape& shape, int port, int threads,
                       int calls_per_thread, const std::string& body) {
  std::atomic<int64_t> total_calls{0};
  std::atomic<int64_t> failures{0};
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(threads));
  common::Stopwatch stopwatch;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      net::HttpClient::Options client_options;
      client_options.host = "127.0.0.1";
      client_options.port = port;
      net::HttpClient client(client_options);
      auto& local = latencies[static_cast<size_t>(t)];
      local.reserve(static_cast<size_t>(calls_per_thread));
      for (int i = 0; i < calls_per_thread; ++i) {
        common::Stopwatch call_watch;
        const int calls = shape.run(client, body);
        local.push_back(call_watch.ElapsedSeconds() * 1e3);
        if (calls == 0) {
          failures.fetch_add(1, std::memory_order_relaxed);
        } else {
          total_calls.fetch_add(calls, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_s = stopwatch.ElapsedSeconds();
  CF_CHECK(failures.load() == 0)
      << shape.name << ": " << failures.load() << " failed calls";

  std::vector<double> merged;
  for (const auto& local : latencies) {
    merged.insert(merged.end(), local.begin(), local.end());
  }
  std::sort(merged.begin(), merged.end());
  ShapeResult result;
  result.requests = total_calls.load();
  result.requests_per_sec =
      static_cast<double>(result.requests) / std::max(wall_s, 1e-9);
  result.p50_ms = common::PercentileOfSorted(merged, 0.50);
  result.p95_ms = common::PercentileOfSorted(merged, 0.95);
  return result;
}

// --------------------------------------------------------------------------
// c10k: N keep-alive connections held open at once, swept with request
// rounds from forked client processes.
// --------------------------------------------------------------------------

void RaiseFdLimitToHard() {
  struct rlimit limit = {};
  if (::getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
      limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &limit);
  }
}

bool ReadFull(int fd, void* buf, size_t len) {
  char* at = static_cast<char*>(buf);
  while (len > 0) {
    const ssize_t n = ::read(fd, at, len);
    if (n <= 0) return false;
    at += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool WriteFull(int fd, const void* buf, size_t len) {
  const char* at = static_cast<const char*>(buf);
  while (len > 0) {
    const ssize_t n = ::write(fd, at, len);
    if (n <= 0) return false;
    at += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

/// Child body: open `conns` keep-alive connections, report ready, wait
/// for go, sweep every connection `rounds` times, stream the latencies
/// back. Exits nonzero on any failed request so the parent can tell a
/// wedged server from a slow one.
[[noreturn]] void RunC10kChild(int port_fd, int go_fd, int out_fd, int conns,
                               int rounds) {
  int32_t port = 0;
  if (!ReadFull(port_fd, &port, sizeof(port))) _exit(5);

  std::vector<std::unique_ptr<net::HttpClient>> clients;
  clients.reserve(static_cast<size_t>(conns));
  for (int i = 0; i < conns; ++i) {
    net::HttpClient::Options client_options;
    client_options.host = "127.0.0.1";
    client_options.port = port;
    clients.push_back(std::make_unique<net::HttpClient>(client_options));
    // The warm-up request both establishes the connection and primes the
    // server's per-connection buffers — steady state from here on.
    auto response = clients.back()->Get("/healthz");
    if (!response.ok() || response->status_code != 200) _exit(6);
  }
  if (!WriteFull(out_fd, "R", 1)) _exit(5);
  char go = 0;
  if (!ReadFull(go_fd, &go, 1)) _exit(5);

  constexpr int kChildThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::vector<double>> latencies(kChildThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kChildThreads; ++t) {
    workers.emplace_back([&, t] {
      auto& local = latencies[static_cast<size_t>(t)];
      local.reserve(static_cast<size_t>(rounds * conns / kChildThreads + 1));
      for (int r = 0; r < rounds; ++r) {
        for (int i = t; i < conns; i += kChildThreads) {
          common::Stopwatch call_watch;
          auto response = clients[static_cast<size_t>(i)]->Get("/healthz");
          local.push_back(call_watch.ElapsedSeconds() * 1e3);
          if (!response.ok() || response->status_code != 200) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  if (!WriteFull(out_fd, "D", 1)) _exit(5);
  std::vector<double> merged;
  for (const auto& local : latencies) {
    merged.insert(merged.end(), local.begin(), local.end());
  }
  const int64_t count = static_cast<int64_t>(merged.size());
  if (!WriteFull(out_fd, &count, sizeof(count))) _exit(5);
  if (!WriteFull(out_fd, merged.data(), merged.size() * sizeof(double))) {
    _exit(5);
  }
  _exit(failures.load() == 0 ? 0 : 7);
}

/// Parent body. MUST run while the process is single-threaded (every
/// earlier server stopped): the children are forked first, then the
/// serving front-end starts, so no thread ever exists across a fork.
void RunC10k(int conns, int threads, int rounds,
             common::BenchReport* report) {
  RaiseFdLimitToHard();
  constexpr int kMaxConnsPerChild = 2500;
  const int children = (conns + kMaxConnsPerChild - 1) / kMaxConnsPerChild;
  struct Child {
    pid_t pid = -1;
    int port_w = -1;  // parent -> child: the bound port
    int go_w = -1;    // parent -> child: start the timed sweep
    int out_r = -1;   // child -> parent: ready byte, done byte, latencies
    int conns = 0;
  };
  std::vector<Child> fleet(static_cast<size_t>(children));
  int remaining = conns;
  for (int c = 0; c < children; ++c) {
    Child& child = fleet[static_cast<size_t>(c)];
    child.conns = std::min(remaining, kMaxConnsPerChild);
    remaining -= child.conns;
    int port_pipe[2], go_pipe[2], out_pipe[2];
    CF_CHECK(::pipe(port_pipe) == 0 && ::pipe(go_pipe) == 0 &&
             ::pipe(out_pipe) == 0)
        << "pipe failed";
    const pid_t pid = ::fork();
    CF_CHECK(pid >= 0) << "fork failed";
    if (pid == 0) {
      ::close(port_pipe[1]);
      ::close(go_pipe[1]);
      ::close(out_pipe[0]);
      RunC10kChild(port_pipe[0], go_pipe[0], out_pipe[1], child.conns,
                   rounds);
    }
    ::close(port_pipe[0]);
    ::close(go_pipe[0]);
    ::close(out_pipe[1]);
    child.pid = pid;
    child.port_w = port_pipe[1];
    child.go_w = go_pipe[1];
    child.out_r = out_pipe[0];
  }

  service::HttpFrontend::Options options;
  options.port = 0;
  options.threads = std::max(4, threads);
  options.max_connections = conns + 64;
  options.idle_timeout_seconds = 120.0;  // outlives the slowest setup
  service::HttpFrontend frontend(options);
  CF_CHECK_OK(frontend.Start());

  for (Child& child : fleet) {
    const int32_t port = static_cast<int32_t>(frontend.port());
    CF_CHECK(WriteFull(child.port_w, &port, sizeof(port)));
  }
  for (Child& child : fleet) {
    char ready = 0;
    CF_CHECK(ReadFull(child.out_r, &ready, 1) && ready == 'R')
        << "c10k child failed to open its connections";
  }
  {
    const auto metrics = frontend.GetMetrics();
    CF_CHECK(metrics.connections_current == conns)
        << "expected " << conns << " live connections, have "
        << metrics.connections_current;
  }

  common::Stopwatch stopwatch;
  for (Child& child : fleet) CF_CHECK(WriteFull(child.go_w, "G", 1));
  for (Child& child : fleet) {
    char done = 0;
    CF_CHECK(ReadFull(child.out_r, &done, 1) && done == 'D')
        << "c10k child died mid-sweep";
  }
  const double wall_s = stopwatch.ElapsedSeconds();

  // The keep-alive pin: every connection was accepted exactly once and is
  // still open — zero reconnects across the whole sweep.
  const auto metrics = frontend.GetMetrics();
  CF_CHECK(metrics.connections_accepted == conns)
      << "reconnects during the sweep: accepted "
      << metrics.connections_accepted << " for " << conns << " conns";
  CF_CHECK(metrics.connections_current == conns);

  std::vector<double> merged;
  merged.reserve(static_cast<size_t>(conns) * static_cast<size_t>(rounds));
  for (Child& child : fleet) {
    int64_t count = 0;
    CF_CHECK(ReadFull(child.out_r, &count, sizeof(count)));
    std::vector<double> latencies(static_cast<size_t>(count));
    CF_CHECK(ReadFull(child.out_r, latencies.data(),
                      latencies.size() * sizeof(double)));
    merged.insert(merged.end(), latencies.begin(), latencies.end());
    int status = 0;
    CF_CHECK(::waitpid(child.pid, &status, 0) == child.pid);
    CF_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "c10k child exited " << status;
    ::close(child.port_w);
    ::close(child.go_w);
    ::close(child.out_r);
  }
  frontend.Stop();

  std::sort(merged.begin(), merged.end());
  const auto total = static_cast<int64_t>(merged.size());
  const double requests_per_sec =
      static_cast<double>(total) / std::max(wall_s, 1e-9);
  const std::string config = common::StrFormat("c10k[conns=%d]", conns);
  std::printf(
      "  %-22s %9.0f req/s   p50 %7.3f ms   p95 %7.3f ms   (%lld "
      "requests over %d conns, %d children)\n",
      config.c_str(), requests_per_sec,
      common::PercentileOfSorted(merged, 0.50),
      common::PercentileOfSorted(merged, 0.95),
      static_cast<long long>(total), conns, children);
  common::BenchRecord record;
  record.config = config;
  record.n = rounds;
  record.support = total;
  record.k = conns;
  record.throughput_per_sec = requests_per_sec;
  record.p50_ms = common::PercentileOfSorted(merged, 0.50);
  record.p95_ms = common::PercentileOfSorted(merged, 0.95);
  report->Add(record);
}

}  // namespace

int main(int argc, char** argv) {
  int calls_per_thread = argc > 1 ? std::atoi(argv[1]) : 200;
  int threads = argc > 2 ? std::atoi(argv[2]) : 4;
  const std::string report_path = argc > 3 ? argv[3] : "";
  const int c10k_conns = argc > 4 ? std::atoi(argv[4]) : 0;

  service::HttpFrontend::Options options;
  options.port = 0;  // ephemeral: bench never collides with anything
  options.threads = std::max(4, threads);
  service::HttpFrontend frontend(options);
  CF_CHECK_OK(frontend.Start());
  const std::string body = SmallRequestJson();
  std::printf("http bench on port %d: %d threads x %d calls/shape\n",
              frontend.port(), threads, calls_per_thread);

  const Shape shapes[] = {
      {"healthz", RunHealthz},
      {"fusion_run", RunFusion},
      {"session_conversation", RunSessionConversation},
  };
  common::BenchReport report("bench_http");
  for (const Shape& shape : shapes) {
    const ShapeResult result = DriveShape(
        shape, frontend.port(), threads, calls_per_thread, body);
    std::printf(
        "  %-22s %9.0f req/s   p50 %7.3f ms   p95 %7.3f ms   (%lld "
        "requests)\n",
        shape.name, result.requests_per_sec, result.p50_ms, result.p95_ms,
        static_cast<long long>(result.requests));
    common::BenchRecord record;
    record.config = shape.name;
    record.support = result.requests;
    record.k = threads;
    record.throughput_per_sec = result.requests_per_sec;
    record.p50_ms = result.p50_ms;
    record.p95_ms = result.p95_ms;
    report.Add(record);
  }
  frontend.Stop();

  // --- router scale: the same fusion:run traffic through net::Router at
  // 1 vs 2 backends, so the report shows what the front tier costs and
  // what a second backend buys.
  for (const int num_backends : {1, 2}) {
    std::vector<std::unique_ptr<service::HttpFrontend>> backends;
    net::Router::Options router_options;
    router_options.port = 0;
    router_options.threads = std::max(4, threads);
    for (int b = 0; b < num_backends; ++b) {
      service::HttpFrontend::Options backend_options;
      backend_options.port = 0;
      backend_options.threads = std::max(4, threads);
      backends.push_back(
          std::make_unique<service::HttpFrontend>(backend_options));
      CF_CHECK_OK(backends.back()->Start());
      router_options.backends.push_back(
          common::StrFormat("127.0.0.1:%d", backends.back()->port()));
    }
    net::Router router(router_options);
    CF_CHECK_OK(router.Start());
    const Shape shape{
        num_backends == 1 ? "router_1_backend" : "router_2_backends",
        RunFusion};
    const ShapeResult result = DriveShape(shape, router.port(), threads,
                                          calls_per_thread, body);
    std::printf(
        "  %-22s %9.0f req/s   p50 %7.3f ms   p95 %7.3f ms   (%lld "
        "requests)\n",
        shape.name, result.requests_per_sec, result.p50_ms, result.p95_ms,
        static_cast<long long>(result.requests));
    common::BenchRecord record;
    record.config = shape.name;
    record.support = result.requests;
    record.k = threads;
    record.throughput_per_sec = result.requests_per_sec;
    record.p50_ms = result.p50_ms;
    record.p95_ms = result.p95_ms;
    report.Add(record);
    router.Stop();
    for (auto& backend : backends) backend->Stop();
  }

  // Last, after every server above stopped (the process must be single-
  // threaded when the client fleet forks).
  if (c10k_conns > 0) {
    RunC10k(c10k_conns, threads, /*rounds=*/5, &report);
  }

  if (!report_path.empty()) {
    if (auto status = report.MergeToFile(report_path); !status.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", report_path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", report_path.c_str());
  }
  return 0;
}
