/// The repository benchmark driver. One process hosts the serving
/// front-end (service::HttpFrontend, 2 handler workers), the load
/// generator and, for session-crowd, a net::LoopbackCrowdServer; every
/// layer is timed only around calls into its public functions.
///
/// usage: perfbench --workload run-small|run-books|session-crowd
///                  --seed N --seconds S --trace 0|1 [--trace-out PATH]
///
/// --trace 0 prints the end-to-end metrics of the untraced served run;
/// --trace 1 repeats the served run and adds a traced in-process replay of
/// the same pool, printing the per-layer metrics. The last stdout line is
/// one JSON object {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "net/http.h"
#include "net/http_client.h"
#include "net/loopback_crowd_server.h"
#include "perfbench.h"
#include "service/http_frontend.h"
#include "service/request_json.h"

namespace perfbench {
namespace {

using cf::common::Result;
using cf::common::Status;
using cf::common::StrFormat;

/// Set-up is repeated (at least kMinSetupRounds times, until
/// kSetupSeconds have been spent) and its median reported.
constexpr int kMinSetupRounds = 3;
constexpr int kMaxSetupRounds = 50;
constexpr double kSetupSeconds = 1.5;
constexpr int kFrontendWorkers = 2;
constexpr int kWarmOpsPerLane = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !(args.seconds > 0)) {
    return Status::InvalidArgument(
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1");
  }
  return args;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return cf::common::PercentileOfSorted(values, 0.5);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

/// Everything one served run needs, torn down in reverse order.
struct Rig {
  std::unique_ptr<cf::net::LoopbackCrowdServer> crowd;
  std::vector<PoolItem> pool;
  std::unique_ptr<cf::service::HttpFrontend> frontend;
  /// One keep-alive client per load-generator lane, plus one for
  /// /metricsz.
  std::vector<std::unique_ptr<cf::net::HttpClient>> lanes;
  std::unique_ptr<cf::net::HttpClient> admin;

  ~Rig() {
    lanes.clear();
    admin.reset();
    if (frontend != nullptr) frontend->Stop();
    if (crowd != nullptr) crowd->Stop();
  }
};

std::unique_ptr<cf::net::HttpClient> Connect(int port) {
  cf::net::HttpClient::Options options;
  options.host = "127.0.0.1";
  options.port = port;
  return std::make_unique<cf::net::HttpClient>(options);
}

/// One op on one lane's client: a fusion:run call or a whole session.
bool RunOp(cf::net::HttpClient& client, const PoolItem& item,
           LaneStats& stats) {
  const SteadyClock::time_point sent = SteadyClock::now();
  auto response = client.Post("/v1/fusion:run", item.body);
  stats.call_ms.Record(
      std::chrono::duration<double, std::milli>(SteadyClock::now() - sent)
          .count());
  if (!response.ok()) {
    if (stats.first_error.empty()) {
      stats.first_error = response.status().ToString();
    }
    return false;
  }
  stats.bytes_in += static_cast<int64_t>(item.body.size());
  stats.bytes_out += static_cast<int64_t>(response->body.size());
  if (!AcceptFusionResponse(item, response->status_code, response->body,
                            stats)) {
    return false;
  }
  ++stats.ops_ok;
  return true;
}

bool SessionOp(cf::net::HttpClient& client, const PoolItem& item,
               LaneStats& stats) {
  const SteadyClock::time_point start = SteadyClock::now();
  const auto fail = [&](const std::string& why) {
    if (stats.first_error.empty()) stats.first_error = why;
    return false;
  };
  // One HTTP call into `response`; false (after recording why) unless it
  // answered `want_status`.
  cf::net::HttpResponse response;
  const auto call = [&](const char* method, const std::string& target,
                        const std::string& body, int want_status) {
    cf::net::HttpRequest request;
    request.method = method;
    request.target = target;
    request.body = body;
    if (!body.empty()) {
      request.headers.push_back({"Content-Type", "application/json"});
    }
    const SteadyClock::time_point sent = SteadyClock::now();
    auto result = client.Call(request);
    stats.call_ms.Record(
        std::chrono::duration<double, std::milli>(SteadyClock::now() - sent)
            .count());
    stats.bytes_in += static_cast<int64_t>(body.size());
    if (!result.ok()) {
      fail(std::string(method) + " " + target + ": " +
           result.status().ToString());
      return false;
    }
    stats.bytes_out += static_cast<int64_t>(result->body.size());
    response = std::move(*result);
    if (response.status_code != want_status) {
      fail(StrFormat("%s %s: HTTP %d %.200s", method, target.c_str(),
                     response.status_code, response.body.c_str()));
      return false;
    }
    return true;
  };
  if (!call("POST", "/v1/sessions", item.body, 201)) return false;
  auto id = ScanString(response.body, "session_id");
  if (!id.ok()) return fail("create: " + id.status().ToString());
  const std::string base = "/v1/sessions/" + *id;
  bool done = false;
  for (int step = 0; !done; ++step) {
    if (step == 64) return fail(base + ": no done after 64 steps");
    if (!call("POST", base + "/step", "{}", 200)) return false;
    auto flag = ScanBool(response.body, "done");
    if (!flag.ok()) return fail("step: " + flag.status().ToString());
    done = *flag;
  }
  if (!call("GET", base + "/result", "", 200)) return false;
  const size_t latencies_before = stats.crowd_latency_ms.size();
  if (!AcceptFusionResponse(item, response.status_code, response.body,
                            stats)) {
    return false;
  }
  if (!call("DELETE", base, "", 200)) return false;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
          .count();
  const double crowd_ms = std::accumulate(
      stats.crowd_latency_ms.begin() +
          static_cast<std::ptrdiff_t>(latencies_before),
      stats.crowd_latency_ms.end(), 0.0);
  stats.session_overhead_ms.push_back(wall_ms - crowd_ms);
  ++stats.ops_ok;
  return true;
}

/// One load phase: the loop's tallies and each lane's client-side stats.
struct Phase {
  LoopResult loop;
  std::vector<LaneStats> lanes;
};

/// Runs `loop` over ops that take pool item (op index mod pool size) on
/// their lane's client.
template <typename Loop>
Phase RunPhase(Rig& rig, OpKind kind, int lanes, Loop&& loop) {
  Phase phase;
  phase.lanes.resize(static_cast<size_t>(lanes));
  const OpFn op = [&](int lane, int64_t index) {
    const PoolItem& item =
        rig.pool[static_cast<size_t>(index) % rig.pool.size()];
    cf::net::HttpClient& client = *rig.lanes[static_cast<size_t>(lane)];
    LaneStats& stats = phase.lanes[static_cast<size_t>(lane)];
    return kind == OpKind::kRun ? RunOp(client, item, stats)
                                : SessionOp(client, item, stats);
  };
  phase.loop = loop(op);
  return phase;
}

/// The /metricsz counters the benchmark reads.
struct FrontendSnapshot {
  double requests_failed = 0, requests_rejected = 0, requests_shed = 0,
         connections_rejected = 0, sessions_active = 0, p50_handler_ms = 0,
         p95_handler_ms = 0;
};

Result<FrontendSnapshot> ReadMetricsz(cf::net::HttpClient& admin) {
  CF_ASSIGN_OR_RETURN(const cf::net::HttpResponse response,
                      admin.Get("/metricsz"));
  if (response.status_code != 200) {
    return Status::Internal(StrFormat("/metricsz: HTTP %d",
                                      response.status_code));
  }
  FrontendSnapshot s;
  const std::string& body = response.body;
  CF_ASSIGN_OR_RETURN(s.requests_failed, ScanNumber(body, "requests_failed"));
  CF_ASSIGN_OR_RETURN(s.requests_rejected,
                      ScanNumber(body, "requests_rejected"));
  CF_ASSIGN_OR_RETURN(s.requests_shed, ScanNumber(body, "requests_shed"));
  CF_ASSIGN_OR_RETURN(s.connections_rejected,
                      ScanNumber(body, "connections_rejected"));
  CF_ASSIGN_OR_RETURN(s.sessions_active, ScanNumber(body, "sessions_active"));
  CF_ASSIGN_OR_RETURN(s.p50_handler_ms, ScanNumber(body, "p50_handler_ms"));
  CF_ASSIGN_OR_RETURN(s.p95_handler_ms, ScanNumber(body, "p95_handler_ms"));
  return s;
}

/// Generates the pool, computes the reference results, starts the servers,
/// opens every lane's connection and warms up with kWarmOpsPerLane ops on
/// every lane at once — everything up to the first timed op.
Result<std::unique_ptr<Rig>> SetUp(const WorkloadConfig& config,
                                   uint64_t seed,
                                   const cf::service::FusionService& service) {
  auto rig = std::make_unique<Rig>();
  std::string crowd_endpoint;
  if (config.kind == OpKind::kSession) {
    rig->crowd = std::make_unique<cf::net::LoopbackCrowdServer>();
    CF_RETURN_IF_ERROR(rig->crowd->Start());
    crowd_endpoint = rig->crowd->endpoint();
  }
  CF_ASSIGN_OR_RETURN(rig->pool,
                      BuildPool(config, seed, crowd_endpoint, service));
  // Reference runs are compute-bound for fusion:run pools and wait on the
  // crowd's latency for session pools.
  CF_RETURN_IF_ERROR(ComputeExpected(
      &rig->pool, service, config.kind == OpKind::kRun ? 4 : 8));

  cf::service::HttpFrontend::Options options;
  options.port = 0;
  options.threads = kFrontendWorkers;
  rig->frontend = std::make_unique<cf::service::HttpFrontend>(options);
  CF_RETURN_IF_ERROR(rig->frontend->Start());
  const int lanes = std::max(config.kind == OpKind::kRun
                                 ? kOpenConnections
                                 : 0,
                             config.closed_callers);
  for (int lane = 0; lane < lanes; ++lane) {
    rig->lanes.push_back(Connect(rig->frontend->port()));
    CF_ASSIGN_OR_RETURN(const auto health, rig->lanes.back()->Get("/healthz"));
    if (health.status_code != 200) return Status::Internal("/healthz failed");
  }
  rig->admin = Connect(rig->frontend->port());

  const Phase warm = RunPhase(*rig, config.kind, lanes, [&](const OpFn& op) {
    std::vector<std::thread> threads;
    for (int lane = 0; lane < lanes; ++lane) {
      threads.emplace_back([&, lane] {
        for (int i = 0; i < kWarmOpsPerLane; ++i) {
          op(lane, static_cast<int64_t>(i) * lanes + lane);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    return LoopResult();
  });
  for (const LaneStats& lane : warm.lanes) {
    if (!lane.first_error.empty()) {
      return Status::Internal("warm-up op failed: " + lane.first_error);
    }
  }
  return rig;
}

bool SameExpected(const std::vector<PoolItem>& a,
                  const std::vector<PoolItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const Expected& x = a[i].expected;
    const Expected& y = b[i].expected;
    if (x.total_cost_spent != y.total_cost_spent ||
        x.total_utility_bits != y.total_utility_bits ||
        x.final_marginals != y.final_marginals) {
      return false;
    }
  }
  return true;
}

// --------------------------------------------------------------------------
// Traced in-process replay
// --------------------------------------------------------------------------

/// Opens a span on construction and closes it on destruction; inert when
/// the recorder is null (the untraced replay).
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name, int64_t op, int parent)
      : recorder_(recorder),
        id_(recorder == nullptr ? -1 : recorder->Begin(name, op, parent)) {}
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

struct ReplayStats {
  int64_t ops = 0;
  int64_t failed = 0;
  double wall_seconds = 0.0;
  double selection_seconds = 0.0;
  std::vector<double> selection_samples;
  std::string first_error;
};

/// Replays one op in-process through the calls the served path makes, in
/// order: HttpRequestParser, JsonValue::Parse, FusionRequestFromJson,
/// CreateSession, each Session::Step (with StepOutcomeToJson + Dump per
/// step for sessions), Finish, FusionResponseToJson, Dump, and the
/// session's destruction. Then checks the result like a served one.
void ReplayOp(const PoolItem& item, OpKind kind,
              const cf::service::FusionService& service,
              SpanRecorder* recorder, int64_t op, ReplayStats& stats) {
  const auto fail = [&](const std::string& why) {
    ++stats.failed;
    if (stats.first_error.empty()) stats.first_error = why;
  };
  const SteadyClock::time_point start = SteadyClock::now();
  std::string body;
  bool ok = true;
  {
    const int root =
        recorder == nullptr ? -1 : recorder->Begin("op", op, -1);
    cf::net::HttpRequest http;
    {
      SpanScope span(recorder, "net.parse", op, root);
      cf::net::HttpRequestParser parser;
      parser.Consume(item.framed);
      auto parsed = parser.Next(&http);
      ok = parsed.ok() && *parsed;
    }
    Result<cf::common::JsonValue> json = Status::Internal("unparsed");
    if (ok) {
      SpanScope span(recorder, "json.parse", op, root);
      json = cf::common::JsonValue::Parse(http.body);
    }
    Result<cf::service::FusionRequest> request = Status::Internal("undecoded");
    if (ok && json.ok()) {
      SpanScope span(recorder, "wire.decode", op, root);
      request = cf::service::FusionRequestFromJson(*json);
    }
    Result<std::unique_ptr<cf::service::Session>> session =
        Status::Internal("not created");
    if (request.ok()) {
      SpanScope span(recorder, "session.create", op, root);
      session = service.CreateSession(std::move(request).value());
    }
    ok = ok && session.ok();
    while (ok && !(*session)->done()) {
      Result<std::vector<cf::service::StepOutcome>> outcomes =
          Status::Internal("not stepped");
      {
        SpanScope span(recorder, "session.step", op, root);
        outcomes = (*session)->Step();
      }
      ok = outcomes.ok();
      if (ok && kind == OpKind::kSession) {
        cf::common::JsonValue reply = cf::common::JsonValue::MakeObject();
        {
          SpanScope span(recorder, "wire.encode", op, root);
          cf::common::JsonValue array = cf::common::JsonValue::MakeArray();
          for (const auto& outcome : *outcomes) {
            array.Append(cf::service::StepOutcomeToJson(outcome));
          }
          reply.Set("done", (*session)->done());
          reply.Set("outcomes", std::move(array));
        }
        SpanScope span(recorder, "json.dump", op, root);
        body = reply.Dump();
      }
    }
    if (ok) {
      stats.selection_seconds += (*session)->selection_seconds();
      const std::vector<double> samples =
          (*session)->selection_compute_samples();
      stats.selection_samples.insert(stats.selection_samples.end(),
                                     samples.begin(), samples.end());
      cf::service::FusionResponse response;
      {
        SpanScope span(recorder, "session.finish", op, root);
        response = (*session)->Finish();
      }
      cf::common::JsonValue encoded;
      {
        SpanScope span(recorder, "wire.encode", op, root);
        encoded = cf::service::FusionResponseToJson(response);
      }
      SpanScope span(recorder, "json.dump", op, root);
      body = encoded.Dump();
    }
    if (session.ok()) {
      SpanScope span(recorder, "session.close", op, root);
      session->reset();
    }
    if (recorder != nullptr) recorder->End(root);
  }
  stats.wall_seconds +=
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  ++stats.ops;
  if (!ok) return fail(item.request.label + ": in-process op failed");
  LaneStats check;
  if (!AcceptFusionResponse(item, 200, body, check)) fail(check.first_error);
}

struct ReplayResult {
  ReplayStats untraced;
  ReplayStats traced;
  SpanRecorder recorder;
};

/// Alternates untraced and traced passes over the whole pool until
/// `seconds` have passed (at least one of each), so drift hits both alike.
void Replay(const std::vector<PoolItem>& pool, OpKind kind,
            const cf::service::FusionService& service, double seconds,
            ReplayResult& result) {
  const SteadyClock::time_point start = SteadyClock::now();
  int64_t op = 0;
  for (int pass = 0;; ++pass) {
    const double elapsed =
        std::chrono::duration<double>(SteadyClock::now() - start).count();
    if (pass % 2 == 0 && pass >= 2 && elapsed >= seconds) break;
    const bool traced = pass % 2 == 1;
    for (const PoolItem& item : pool) {
      ReplayOp(item, kind, service, traced ? &result.recorder : nullptr, op++,
               traced ? result.traced : result.untraced);
    }
  }
}

// --------------------------------------------------------------------------
// Output
// --------------------------------------------------------------------------

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    cf::common::JsonValue metric = cf::common::JsonValue::MakeObject();
    metric.Set("value", std::isfinite(value) ? value : 0.0);
    metric.Set("unit", unit);
    metrics_.Set(name, std::move(metric));
    std::printf("  %-26s %14.6f %s\n", name.c_str(), value, unit.c_str());
  }
  cf::common::JsonValue Take() { return std::move(metrics_); }

 private:
  cf::common::JsonValue metrics_ = cf::common::JsonValue::MakeObject();
};

int Main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 2;
  }
  auto config = FindWorkload(args->workload);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              config->name.c_str(),
              static_cast<unsigned long long>(args->seed), args->seconds,
              args->trace ? 1 : 0);
  const cf::service::FusionService service;
  bool correct = true;
  const auto violate = [&](const std::string& why) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  };

  // --- set-up, repeated; the last rig is the one measured ----------------
  std::vector<double> setup_seconds;
  std::unique_ptr<Rig> rig;
  std::vector<PoolItem> first_pool;
  for (int round = 0;
       round < kMinSetupRounds ||
       (round < kMaxSetupRounds &&
        std::accumulate(setup_seconds.begin(), setup_seconds.end(), 0.0) <
            kSetupSeconds);
       ++round) {
    rig.reset();
    const SteadyClock::time_point start = SteadyClock::now();
    auto made = SetUp(*config, args->seed, service);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    rig = std::move(made).value();
    setup_seconds.push_back(
        std::chrono::duration<double>(SteadyClock::now() - start).count());
    if (round == 0) first_pool = rig->pool;
  }
  std::printf("set-up: %zu rounds, %zu pool items\n", setup_seconds.size(),
              rig->pool.size());
  if (!SameExpected(first_pool, rig->pool)) {
    violate("reference results differ between set-up rounds");
  }
  first_pool.clear();
  const int64_t tickets_before =
      rig->crowd != nullptr ? rig->crowd->tickets_submitted() : 0;

  // --- untraced served run -----------------------------------------------
  // run-*: phase A, an open loop at a fixed rate, then phase B, a closed
  // loop. The end-to-end latency and throughput come from phase B; phase
  // A's latency from each op's scheduled send and the generator's
  // lateness are per-layer figures, because on a shared host they swing
  // with timer wake-up delays more than with the program. session-crowd
  // is one closed loop.
  auto before = ReadMetricsz(*rig->admin);
  if (!before.ok()) {
    std::fprintf(stderr, "%s\n", before.status().ToString().c_str());
    return 1;
  }
  std::vector<Phase> phases;
  double closed_seconds = args->seconds;
  if (config->kind == OpKind::kRun) {
    const double open_seconds = args->seconds / 3;
    closed_seconds -= open_seconds;
    phases.push_back(RunPhase(*rig, config->kind, kOpenConnections,
                              [&](const OpFn& op) {
                                return RunOpenLoop(kOpenConnections,
                                                   config->open_rate,
                                                   open_seconds, op);
                              }));
  }
  phases.push_back(RunPhase(*rig, config->kind, config->closed_callers,
                            [&](const OpFn& op) {
                              return RunClosedLoop(config->closed_callers,
                                                   closed_seconds, op);
                            }));
  const Phase* open_phase = phases.size() == 2 ? &phases.front() : nullptr;
  const Phase& closed_phase = phases.back();
  auto after = ReadMetricsz(*rig->admin);
  if (!after.ok()) return 1;

  int64_t attempted = 0, failed = 0, ops_ok = 0, bytes_in = 0, bytes_out = 0,
          tickets_merged = 0;
  std::vector<LaneStats::ItemQuality> quality(rig->pool.size());
  std::vector<double> crowd_latency_ms, session_overhead_ms;
  for (const Phase& phase : phases) {
    attempted += phase.loop.attempted;
    failed += phase.loop.failed;
    for (const LaneStats& lane : phase.lanes) {
      if (!lane.first_error.empty()) violate(lane.first_error);
      ops_ok += lane.ops_ok;
      for (size_t i = 0; i < lane.quality.size(); ++i) {
        if (lane.quality[i].served) quality[i] = lane.quality[i];
      }
      bytes_in += lane.bytes_in;
      bytes_out += lane.bytes_out;
      tickets_merged += lane.tickets_merged;
      crowd_latency_ms.insert(crowd_latency_ms.end(),
                              lane.crowd_latency_ms.begin(),
                              lane.crowd_latency_ms.end());
      session_overhead_ms.insert(session_overhead_ms.end(),
                                 lane.session_overhead_ms.begin(),
                                 lane.session_overhead_ms.end());
    }
  }
  Histogram call_ms;
  for (const LaneStats& lane : closed_phase.lanes) call_ms.Merge(lane.call_ms);
  if (failed > 0) violate(StrFormat("%lld failed ops", (long long)failed));
  if (after->sessions_active != 0) {
    violate(StrFormat("%g sessions still active", after->sessions_active));
  }
  const auto check_universes = [&] {
    const int64_t live =
        rig->crowd != nullptr ? rig->crowd->universes_live() : 0;
    if (live != 0) {
      violate(StrFormat("%lld crowd universes still live", (long long)live));
    }
    return live;
  };
  check_universes();
  const LatencySummary latency = Summarize(closed_phase.loop.latency_ms);
  const double peak_rss_mb = PeakRssMb();
  const int64_t closed_ok =
      closed_phase.loop.attempted - closed_phase.loop.failed;
  const double ops_per_s =
      static_cast<double>(closed_ok) / closed_phase.loop.wall_seconds;
  const double shed = (after->requests_shed + after->connections_rejected) -
                      (before->requests_shed + before->connections_rejected);
  const double errors = (after->requests_failed + after->requests_rejected) -
                        (before->requests_failed + before->requests_rejected);
  if (shed != 0) violate(StrFormat("%g requests shed", shed));
  if (errors != 0) violate(StrFormat("%g frontend errors", errors));
  const int64_t tickets_submitted =
      rig->crowd != nullptr ? rig->crowd->tickets_submitted() - tickets_before
                            : 0;
  std::printf(
      "served: %lld ops attempted, %lld failed; closed loop: %lld ops in "
      "%.3f s, %lld latency samples (%lld beyond p95)\n",
      (long long)attempted, (long long)failed, (long long)closed_ok,
      closed_phase.loop.wall_seconds, (long long)latency.samples,
      (long long)latency.beyond_p95);
  if (latency.beyond_p95 < 10) {
    std::printf("note: p95 rests on fewer than 10 samples beyond it\n");
  }

  // Quality over the distinct pool items served in the run.
  double utility_gain = 0.0;
  int64_t items_served = 0;
  FactTally facts;
  for (const LaneStats::ItemQuality& item : quality) {
    if (!item.served) continue;
    ++items_served;
    utility_gain += item.utility_gain_bits;
    facts.correct += item.facts.correct;
    facts.total += item.facts.total;
  }

  MetricsJson metrics;
  if (!args->trace) {
    rig.reset();
    metrics.Add("setup_s", Median(setup_seconds), "s");
    metrics.Add("p50_ms", latency.p50, "ms");
    metrics.Add("p95_ms", latency.p95, "ms");
    metrics.Add("ops_per_s", ops_per_s, "ops/s");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
    metrics.Add("utility_bits",
                utility_gain /
                    static_cast<double>(std::max<int64_t>(items_served, 1)),
                "bits");
    metrics.Add("accuracy",
                static_cast<double>(facts.correct) /
                    static_cast<double>(std::max<int64_t>(facts.total, 1)),
                "fraction");
  } else {
    // The served numbers above, then the traced in-process replay against
    // the same pool (and, for sessions, the same crowd server).
    rig->lanes.clear();
    rig->admin.reset();
    rig->frontend->Stop();
    ReplayResult replay;
    Replay(rig->pool, config->kind, service,
           std::min(8.0, std::max(2.0, args->seconds / 5)), replay);
    const int64_t universes_live = check_universes();
    for (const ReplayStats* pass : {&replay.untraced, &replay.traced}) {
      attempted += pass->ops;
      failed += pass->failed;
      if (!pass->first_error.empty()) violate(pass->first_error);
    }
    const ReplayStats& traced = replay.traced;
    const double traced_ops = static_cast<double>(traced.ops);
    double root_ns = 0, child_ns = 0, step_ns = 0;
    const std::vector<std::pair<std::string, int64_t>> self =
        replay.recorder.SelfTimeByName();
    const auto self_ns = [&](const char* name) {
      for (const auto& [span, ns] : self) {
        if (span == name) return static_cast<double>(ns);
      }
      return 0.0;
    };
    const auto self_us = [&](const char* name) {
      return self_ns(name) / 1e3 / traced_ops;
    };
    for (const SpanRecorder::Span& span : replay.recorder.spans()) {
      const double ns = double(span.end_ns - span.start_ns);
      (span.parent < 0 ? root_ns : child_ns) += ns;
      if (std::strcmp(span.name, "session.step") == 0) {
        step_ns += ns;
      }
    }
    const double step_us = step_ns / 1e3 / traced_ops;
    const double select_us = traced.selection_seconds * 1e6 / traced_ops;
    // Reconciliation: the layer spans against the untraced op wall.
    const double untraced_us = replay.untraced.wall_seconds * 1e6 /
                               static_cast<double>(replay.untraced.ops);
    const double span_us = child_ns / 1e3 / traced_ops;
    const double gap_pct = 100.0 * (span_us / untraced_us - 1.0);
    std::printf(
        "traced: %lld ops (%lld untraced), %zu spans; spans sum to %.1f "
        "us/op against an untraced op wall of %.1f us (%+.2f%%)\n",
        (long long)traced.ops, (long long)replay.untraced.ops,
        replay.recorder.spans().size(), span_us, untraced_us, gap_pct);
    if (std::fabs(gap_pct) > 10.0) {
        std::printf("note: spans and untraced wall differ by more than 10%%\n");
    }
    if (!args->trace_out.empty()) {
      if (auto status = replay.recorder.WriteJsonl(args->trace_out);
          !status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
      }
    }
    const auto per_op = [&](double total) {
      return total / static_cast<double>(std::max<int64_t>(ops_ok, 1));
    };
    // Phase A, the open loop (0 on session-crowd, which has none).
    const LatencySummary open =
        open_phase != nullptr ? Summarize(open_phase->loop.latency_ms)
                              : LatencySummary();
    metrics.Add("gen.open_p50_ms", open.p50, "ms");
    metrics.Add("gen.open_p95_ms", open.p95, "ms");
    metrics.Add("gen.late_p95_ms",
                open_phase != nullptr
                    ? Summarize(open_phase->loop.late_ms).p95
                    : 0.0,
                "ms");
    metrics.Add("net.parse_us", self_us("net.parse"), "us");
    metrics.Add("net.bytes_in", per_op(static_cast<double>(bytes_in)),
                "count");
    metrics.Add("net.bytes_out", per_op(static_cast<double>(bytes_out)),
                "count");
    metrics.Add("net.outside_handler_ms",
                Summarize(call_ms).p50 - after->p50_handler_ms, "ms");
    metrics.Add("net.shed", shed, "count");
    metrics.Add("json.parse_us", self_us("json.parse"), "us");
    metrics.Add("json.dump_us", self_us("json.dump"), "us");
    metrics.Add("wire.decode_us", self_us("wire.decode"), "us");
    metrics.Add("wire.encode_us", self_us("wire.encode"), "us");
    metrics.Add("session.create_us", self_us("session.create"), "us");
    metrics.Add("session.step_us", step_us, "us");
    metrics.Add("session.finish_us", self_us("session.finish"), "us");
    metrics.Add("core.select_us", select_us, "us");
    metrics.Add("core.select_p50_us", Median(traced.selection_samples) * 1e6,
                "us");
    metrics.Add("core.select_calls",
                static_cast<double>(traced.selection_samples.size()) /
                    traced_ops,
                "count");
    metrics.Add("core.step_rest_us", step_us - select_us, "us");
    metrics.Add("frontend.handler_p50_ms", after->p50_handler_ms, "ms");
    metrics.Add("frontend.handler_p95_ms", after->p95_handler_ms, "ms");
    metrics.Add("frontend.errors", errors, "count");
    metrics.Add("crowd.latency_p50_ms", Median(crowd_latency_ms), "ms");
    metrics.Add("crowd.tickets_per_step",
                tickets_merged > 0 ? static_cast<double>(tickets_submitted) /
                                         static_cast<double>(tickets_merged)
                                   : 0.0,
                "ratio");
    metrics.Add("crowd.universes_live", static_cast<double>(universes_live),
                "count");
    metrics.Add("session.overhead_ms", Median(session_overhead_ms), "ms");
    metrics.Add("trace.unattributed_pct",
                100.0 * self_ns("op") / root_ns, "%");
    metrics.Add("trace.overhead_pct",
                100.0 * ((traced.wall_seconds / traced_ops) /
                             (replay.untraced.wall_seconds /
                              static_cast<double>(replay.untraced.ops)) -
                         1.0),
                "%");
    rig.reset();
  }

  cf::common::JsonValue result = cf::common::JsonValue::MakeObject();
  result.Set("correct", correct);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", metrics.Take());
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
