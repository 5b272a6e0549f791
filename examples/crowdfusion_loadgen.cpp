/// Trace-replay load generator — the capacity-planning counterpart of
/// `crowdfusion_cli serve` (ROADMAP item "Offline bulk-fusion pipeline +
/// load-replay harness"):
///
///   crowdfusion_loadgen synth <out.jsonl> [--records N] [--qps Q]
///                   [--facts F] [--budget B] [--healthz-every K]
///                   [--seed S]
///       write a deterministic synthetic crowdfusion-trace-v1 file: every
///       K-th record a GET /healthz probe, the rest small scripted-
///       provider POST /v1/fusion:run bodies (joint size 2^F, budget B
///       answers per book)
///   crowdfusion_loadgen replay <trace.jsonl> --port P [--host H]
///                   [--qps Q] [--connections C] [--timeout S]
///                   [--repeat R] [--bench-out FILE] [--config LABEL]
///                   [--fail-on-5xx]
///       fire the trace at a live front-end, open loop: --qps rewrites
///       the schedule to Q requests/sec (0 = the trace's recorded
///       pacing), C worker connections share it round-robin, --repeat
///       concatenates R passes over the trace into one schedule, and
///       latency is measured from each request's SCHEDULED send time
///       into a mergeable log-bucketed histogram (coordinated-omission
///       corrected). Prints a one-object JSON report to stdout; the
///       human-readable summary goes to stderr. --bench-out merges a
///       crowdfusion-bench-v2 row (source "crowdfusion_loadgen",
///       n = target QPS, support = trace span seconds, k = connections,
///       throughput = achieved QPS, p50/p95/p99/p99.9 ms, ok/error
///       counts) into FILE for ci/check_bench_regression.py.
///       --fail-on-5xx exits 3 when any request got a 5xx or no response
///       at all — the CI soak gate. 503s carrying Retry-After are the
///       reactor's deliberate load-shed answer: reported as "shed_503",
///       never counted against --fail-on-5xx.
///
/// Diagnostics go to stderr; exit 2 = usage, 1 = runtime error, 3 =
/// --fail-on-5xx tripped.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/bench_report.h"
#include "common/json.h"
#include "common/string_util.h"
#include "loadgen/replayer.h"
#include "loadgen/trace.h"

using namespace crowdfusion;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: crowdfusion_loadgen <command> ...\n"
      "  synth  <out.jsonl> [--records N] [--qps Q] [--facts F]\n"
      "         [--budget B] [--healthz-every K] [--seed S]\n"
      "  replay <trace.jsonl> --port P [--host H] [--qps Q]\n"
      "         [--connections C] [--timeout S] [--repeat R]\n"
      "         [--bench-out FILE] [--config LABEL] [--fail-on-5xx]\n");
  return 2;
}

int Fail(const common::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdSynth(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string out_path = argv[2];
  loadgen::SyntheticTraceOptions options;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--records" && i + 1 < argc) {
      options.num_records = std::atoi(argv[++i]);
    } else if (arg == "--qps" && i + 1 < argc) {
      options.qps = std::atof(argv[++i]);
    } else if (arg == "--facts" && i + 1 < argc) {
      options.facts = std::atoi(argv[++i]);
    } else if (arg == "--budget" && i + 1 < argc) {
      options.budget_per_instance = std::atoi(argv[++i]);
    } else if (arg == "--healthz-every" && i + 1 < argc) {
      options.healthz_every = std::atoi(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      options.seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr, "unknown synth flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  const loadgen::Trace trace = loadgen::MakeSyntheticTrace(options);
  if (auto status = loadgen::SaveTraceFile(trace, out_path); !status.ok()) {
    return Fail(status);
  }
  std::fprintf(stderr,
               "wrote %zu records (%.1f s span at recorded pacing) to %s\n",
               trace.records.size(), trace.SpanSeconds(), out_path.c_str());
  return 0;
}

int CmdReplay(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string trace_path = argv[2];
  loadgen::ReplayOptions options;
  std::string bench_out;
  std::string config = "replay";
  bool fail_on_5xx = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      options.port = std::atoi(argv[++i]);
    } else if (arg == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (arg == "--qps" && i + 1 < argc) {
      options.target_qps = std::atof(argv[++i]);
    } else if (arg == "--connections" && i + 1 < argc) {
      options.connections = std::atoi(argv[++i]);
    } else if (arg == "--timeout" && i + 1 < argc) {
      options.timeout_seconds = std::atof(argv[++i]);
    } else if (arg == "--repeat" && i + 1 < argc) {
      options.repeat = std::atoi(argv[++i]);
    } else if (arg == "--bench-out" && i + 1 < argc) {
      bench_out = argv[++i];
    } else if (arg == "--config" && i + 1 < argc) {
      config = argv[++i];
    } else if (arg == "--fail-on-5xx") {
      fail_on_5xx = true;
    } else {
      std::fprintf(stderr, "unknown replay flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (options.port <= 0) {
    std::fprintf(stderr, "replay requires --port\n");
    return Usage();
  }

  auto trace = loadgen::LoadTraceFile(trace_path);
  if (!trace.ok()) return Fail(trace.status());
  const size_t total_records =
      trace->records.size() * static_cast<size_t>(std::max(1, options.repeat));
  const double span_seconds =
      options.target_qps > 0.0 && !trace->records.empty()
          ? static_cast<double>(total_records - 1) / options.target_qps
          : trace->SpanSeconds() * std::max(1, options.repeat);
  std::fprintf(stderr,
               "replaying %zu records over ~%.1f s at %s against "
               "http://%s:%d (%d connections)\n",
               total_records, span_seconds,
               options.target_qps > 0.0
                   ? common::StrFormat("%.1f qps", options.target_qps).c_str()
                   : "recorded pacing",
               options.host.c_str(), options.port, options.connections);

  auto report = loadgen::Replay(*trace, options);
  if (!report.ok()) return Fail(report.status());

  common::JsonValue summary = common::JsonValue::MakeObject();
  summary.Set("schema", "crowdfusion-loadgen-report-v1");
  summary.Set("trace", trace_path);
  summary.Set("target_qps", options.target_qps);
  summary.Set("connections", options.connections);
  summary.Set("attempted", report->attempted);
  summary.Set("ok", report->ok);
  summary.Set("err_4xx", report->err_4xx);
  summary.Set("err_5xx", report->err_5xx);
  summary.Set("shed_503", report->shed_503);
  summary.Set("err_transport", report->err_transport);
  summary.Set("wall_seconds", report->wall_seconds);
  summary.Set("achieved_qps", report->achieved_qps);
  summary.Set("p50_ms", report->p50_ms);
  summary.Set("p95_ms", report->p95_ms);
  summary.Set("p99_ms", report->p99_ms);
  summary.Set("p999_ms", report->p999_ms);
  std::printf("%s\n", summary.Dump(2).c_str());

  std::fprintf(stderr,
               "achieved %.1f qps over %.1f s: %lld ok, %lld 4xx, %lld "
               "5xx, %lld shed, %lld transport; p50 %.2f ms, p95 %.2f ms, "
               "p99 %.2f ms, p99.9 %.2f ms\n",
               report->achieved_qps, report->wall_seconds,
               static_cast<long long>(report->ok),
               static_cast<long long>(report->err_4xx),
               static_cast<long long>(report->err_5xx),
               static_cast<long long>(report->shed_503),
               static_cast<long long>(report->err_transport),
               report->p50_ms, report->p95_ms, report->p99_ms,
               report->p999_ms);

  if (!bench_out.empty()) {
    common::BenchReport bench("crowdfusion_loadgen");
    common::BenchRecord record;
    record.config = config;
    // Key fields hold the replay SHAPE (target qps, span, connections),
    // never measured counts — check_bench_regression.py matches rows
    // across runs on (source, config, n, support, k).
    record.n = static_cast<int>(std::llround(options.target_qps));
    record.support = std::llround(span_seconds);
    record.k = options.connections;
    record.throughput_per_sec = report->achieved_qps;
    record.p50_ms = report->p50_ms;
    record.p95_ms = report->p95_ms;
    record.p99_ms = report->p99_ms;
    record.p999_ms = report->p999_ms;
    record.ok_count = report->ok;
    record.err_4xx = report->err_4xx;
    record.err_5xx = report->err_5xx;
    record.err_transport = report->err_transport;
    bench.Add(record);
    if (auto status = bench.MergeToFile(bench_out); !status.ok()) {
      return Fail(status);
    }
    std::fprintf(stderr, "merged bench row into %s\n", bench_out.c_str());
  }

  if (fail_on_5xx && (report->err_5xx > 0 || report->err_transport > 0)) {
    std::fprintf(stderr,
                 "FAIL: %lld 5xx + %lld transport errors with "
                 "--fail-on-5xx\n",
                 static_cast<long long>(report->err_5xx),
                 static_cast<long long>(report->err_transport));
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "synth") return CmdSynth(argc, argv);
  if (command == "replay") return CmdReplay(argc, argv);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return Usage();
}
