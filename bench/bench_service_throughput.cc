/// Serving-throughput benchmark for the async answer pipeline: many books
/// served from one global budget by a BudgetScheduler whose simulated
/// crowd answers with real (slept) latency. Compares in-flight window
/// sizes — the `blocking` row is the one-ticket-at-a-time loop (window 1,
/// kept under its historical row key so the BENCH_service.json trajectory
/// stays comparable) — and reports books/sec plus p50/p95 scheduling-step
/// latency into the BENCH_service.json baseline.
///
/// In the emitted BenchRecord rows, `n` is facts per book, `support` is
/// the number of books, `k` is tasks per step; `wall_ms` is the whole
/// run's wall clock and `entropy_bits` the final total utility Q(F).
///
/// A final bulk-pipe section streams `pipe_lines` one-book requests
/// through service::RunBulkPipe from a constant-memory synthetic stream
/// (the offline capacity path of ROADMAP item "Offline bulk-fusion
/// pipeline + load-replay harness") and reports books/sec plus
/// books/sec/core as the `bulk-pipe[m=32]` row.
///
/// usage: bench_service_throughput [books] [facts] [budget_per_book]
///                                 [tasks_per_step] [median_latency_ms]
///                                 [report.json] [pipe_lines]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_report.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/greedy_selector.h"
#include "core/scheduler.h"
#include "crowd/simulated_crowd.h"
#include "service/bulk_pipe.h"
#include "service/fusion_service.h"
#include "service/request_json.h"

using namespace crowdfusion;

namespace {

struct Workload {
  int books = 24;
  int facts = 8;
  int budget_per_book = 8;
  int tasks_per_step = 2;
  double median_latency_ms = 4.0;
};

struct RunResult {
  double wall_ms = 0.0;
  double books_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double total_utility_bits = 0.0;
  int cost_spent = 0;
};

core::JointDistribution MakeBookJoint(int facts, common::Rng& rng) {
  std::vector<double> marginals(static_cast<size_t>(facts));
  for (double& m : marginals) m = rng.NextUniform(0.25, 0.75);
  auto joint = core::JointDistribution::FromIndependentMarginals(marginals);
  CF_CHECK(joint.ok()) << joint.status().ToString();
  return std::move(joint).value();
}

std::vector<bool> MakeTruths(int facts, common::Rng& rng) {
  std::vector<bool> truths(static_cast<size_t>(facts));
  for (size_t i = 0; i < truths.size(); ++i) {
    truths[i] = rng.NextBernoulli(0.5);
  }
  return truths;
}

double Percentile(std::vector<double> values, double fraction) {
  std::sort(values.begin(), values.end());
  return common::PercentileOfSorted(values, fraction);
}

/// One full serving run with `max_in_flight` ticket batches in flight;
/// `concurrent_selection` toggles overlapped per-book selection compute.
RunResult ServeBooks(const Workload& workload, int max_in_flight,
                     bool concurrent_selection = true) {
  core::GreedySelector::Options selector_options;
  selector_options.use_pruning = true;
  selector_options.use_preprocessing = true;
  core::GreedySelector selector(selector_options);

  auto crowd_model = core::CrowdModel::Create(0.8);
  CF_CHECK(crowd_model.ok());
  core::BudgetScheduler::Options options;
  options.total_budget = workload.books * workload.budget_per_book;
  options.tasks_per_step = workload.tasks_per_step;
  options.max_in_flight = max_in_flight;
  options.concurrent_selection = concurrent_selection;
  auto scheduler =
      core::BudgetScheduler::Create(*crowd_model, &selector, options);
  CF_CHECK(scheduler.ok()) << scheduler.status().ToString();

  // Same seeds for every configuration: identical joints, truths, and
  // latency draws, so the runs differ only in scheduling.
  common::Rng rng(0xB00C5EEDULL);
  std::vector<std::unique_ptr<crowd::SimulatedCrowd>> crowds;
  crowds.reserve(static_cast<size_t>(workload.books));
  for (int b = 0; b < workload.books; ++b) {
    core::JointDistribution joint = MakeBookJoint(workload.facts, rng);
    crowds.push_back(std::make_unique<crowd::SimulatedCrowd>(
        crowd::SimulatedCrowd::WithUniformAccuracy(
            MakeTruths(workload.facts, rng), 0.8,
            1000 + static_cast<uint64_t>(b))));
    crowd::LatencyOptions latency;
    latency.median_seconds = workload.median_latency_ms / 1e3;
    latency.sigma = 0.4;
    latency.seed = 7000 + static_cast<uint64_t>(b);
    crowds.back()->ConfigureAsync(latency);  // real clock: latency is slept
    auto id = scheduler->AddInstance("book" + std::to_string(b),
                                     std::move(joint), crowds.back().get());
    CF_CHECK(id.ok()) << id.status().ToString();
  }

  common::Stopwatch stopwatch;
  auto records = scheduler->RunPipelined();
  const double wall_ms = stopwatch.ElapsedMillis();
  CF_CHECK(records.ok()) << records.status().ToString();

  RunResult result;
  result.wall_ms = wall_ms;
  result.books_per_sec =
      static_cast<double>(workload.books) / (wall_ms / 1e3);
  std::vector<double> step_latencies_ms;
  for (const auto& record : *records) {
    if (record.instance < 0) continue;
    step_latencies_ms.push_back(record.latency_seconds * 1e3);
  }
  result.p50_ms = Percentile(step_latencies_ms, 0.50);
  result.p95_ms = Percentile(step_latencies_ms, 0.95);
  result.total_utility_bits = scheduler->TotalUtilityBits();
  result.cost_spent = scheduler->total_cost_spent();
  return result;
}

/// Constant-memory input for the bulk-pipe capacity run: cycles a small
/// pool of serialized request lines until `total` lines were emitted, so
/// a 100k-line stream costs a few KB however long it runs.
class CyclingLineBuf : public std::streambuf {
 public:
  CyclingLineBuf(std::vector<std::string> pool, int64_t total)
      : pool_(std::move(pool)), total_(total) {}

 protected:
  int underflow() override {
    if (emitted_ >= total_) return traits_type::eof();
    current_ = pool_[static_cast<size_t>(
        emitted_ % static_cast<int64_t>(pool_.size()))];
    current_ += '\n';
    ++emitted_;
    setg(current_.data(), current_.data(),
         current_.data() + current_.size());
    return traits_type::to_int_type(current_[0]);
  }

 private:
  std::vector<std::string> pool_;
  int64_t total_ = 0;
  int64_t emitted_ = 0;
  std::string current_;
};

/// Output sink that only counts: response bytes must not accumulate, or
/// the capacity run would measure string growth instead of the pipe.
class CountingNullBuf : public std::streambuf {
 public:
  int64_t bytes() const { return bytes_; }

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += n;
    return n;
  }

 private:
  int64_t bytes_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Workload workload;
  if (argc > 1) workload.books = std::atoi(argv[1]);
  if (argc > 2) workload.facts = std::atoi(argv[2]);
  if (argc > 3) workload.budget_per_book = std::atoi(argv[3]);
  if (argc > 4) workload.tasks_per_step = std::atoi(argv[4]);
  if (argc > 5) workload.median_latency_ms = std::atof(argv[5]);
  const std::string report_path = argc > 6 ? argv[6] : "BENCH_service.json";
  const int64_t pipe_lines = argc > 7 ? std::atoll(argv[7]) : 2000;

  std::printf(
      "serving %d books x %d facts, budget %d/book, k=%d, crowd median "
      "latency %.1f ms\n\n",
      workload.books, workload.facts, workload.budget_per_book,
      workload.tasks_per_step, workload.median_latency_ms);
  std::printf("%-18s %12s %12s %10s %10s %12s\n", "config", "wall_ms",
              "books/sec", "p50_ms", "p95_ms", "utility");

  struct Config {
    std::string label;
    int max_in_flight;
  };
  const std::vector<Config> configs = {
      {"blocking", 1},
      {"pipelined[m=1]", 1},
      {"pipelined[m=4]", 4},
      {"pipelined[m=8]", 8},
  };

  common::BenchReport report("bench_service_throughput");
  double blocking_throughput = 0.0;
  double best_pipelined_throughput = 0.0;
  for (const Config& config : configs) {
    const RunResult result = ServeBooks(workload, config.max_in_flight);
    std::printf("%-18s %12.1f %12.1f %10.2f %10.2f %12.2f\n",
                config.label.c_str(), result.wall_ms, result.books_per_sec,
                result.p50_ms, result.p95_ms, result.total_utility_bits);
    if (config.label == "blocking") {
      blocking_throughput = result.books_per_sec;
    } else {
      best_pipelined_throughput =
          std::max(best_pipelined_throughput, result.books_per_sec);
    }
    common::BenchRecord record;
    record.config = config.label;
    record.n = workload.facts;
    record.support = workload.books;
    record.k = workload.tasks_per_step;
    record.wall_ms = result.wall_ms;
    record.entropy_bits = result.total_utility_bits;
    record.throughput_per_sec = result.books_per_sec;
    record.p50_ms = result.p50_ms;
    record.p95_ms = result.p95_ms;
    report.Add(record);
  }

  if (blocking_throughput > 0) {
    std::printf("\npipelined/blocking speedup: %.2fx\n",
                best_pipelined_throughput / blocking_throughput);
  }

  // Compute-overlap rows: zero crowd latency isolates selection compute,
  // so the serial-vs-concurrent selection pair measures the overlap gain
  // itself, normalized to books/sec-per-core (`throughput_per_sec`).
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  Workload compute_bound = workload;
  compute_bound.median_latency_ms = 0.0;
  std::printf("\nzero-latency selection overlap (m=8, %u cores):\n", cores);
  struct OverlapConfig {
    std::string label;
    bool concurrent_selection;
  };
  const std::vector<OverlapConfig> overlap_configs = {
      {"zero-lat[m=8,serial-select]", false},
      {"zero-lat[m=8,concurrent-select]", true},
  };
  double serial_per_core = 0.0;
  double concurrent_per_core = 0.0;
  for (const OverlapConfig& config : overlap_configs) {
    const RunResult result =
        ServeBooks(compute_bound, 8, config.concurrent_selection);
    const double books_per_sec_per_core =
        result.books_per_sec / static_cast<double>(cores);
    std::printf("%-32s %10.1f ms %10.1f books/sec/core\n",
                config.label.c_str(), result.wall_ms,
                books_per_sec_per_core);
    (config.concurrent_selection ? concurrent_per_core : serial_per_core) =
        books_per_sec_per_core;
    common::BenchRecord record;
    record.config = config.label;
    record.n = compute_bound.facts;
    record.support = compute_bound.books;
    record.k = compute_bound.tasks_per_step;
    record.wall_ms = result.wall_ms;
    record.entropy_bits = result.total_utility_bits;
    record.throughput_per_sec = books_per_sec_per_core;
    record.p50_ms = result.p50_ms;
    record.p95_ms = result.p95_ms;
    report.Add(record);
  }
  if (serial_per_core > 0) {
    std::printf("concurrent/serial selection gain: %.2fx\n",
                concurrent_per_core / serial_per_core);
  }

  // Bulk-pipe capacity run: minimal one-book requests streamed through
  // the offline pipe. Both ends are constant-memory (cycled input pool,
  // counting null sink), so only the pipe's own window can hold state —
  // the sustained-100k-line claim this row backs.
  {
    common::Rng pipe_rng(0xF10E11ULL);
    std::vector<std::string> pool;
    for (int i = 0; i < 64; ++i) {
      service::FusionRequest request;
      request.mode = service::RunMode::kEngine;
      request.label = "pipe-" + std::to_string(i);
      service::InstanceSpec instance;
      instance.name = "book" + std::to_string(i);
      instance.joint = MakeBookJoint(2, pipe_rng);
      instance.truths = MakeTruths(2, pipe_rng);
      request.instances.push_back(std::move(instance));
      request.provider.kind = "scripted";
      request.budget.budget_per_instance = 1;
      // One request per line: compact dump, not the pretty serializer.
      pool.push_back(service::FusionRequestToJson(request).Dump());
    }
    service::FusionService service;
    CyclingLineBuf input(std::move(pool), pipe_lines);
    std::istream in(&input);
    CountingNullBuf sink;
    std::ostream out(&sink);
    service::BulkPipeOptions pipe_options;  // window 32, hardware threads
    auto stats = service::RunBulkPipe(service, in, out, pipe_options);
    CF_CHECK(stats.ok()) << stats.status().ToString();
    CF_CHECK(stats->ok == pipe_lines && stats->errors == 0)
        << stats->ok << " ok, " << stats->errors << " errors of "
        << pipe_lines;
    const double books_per_sec =
        static_cast<double>(stats->books_completed) /
        std::max(1e-9, stats->wall_seconds);
    const double books_per_sec_per_core =
        books_per_sec / static_cast<double>(cores);
    std::printf(
        "\nbulk pipe: %lld one-book requests in %.2f s — %.1f books/sec, "
        "%.2f books/sec/core (window %d, peak in flight %d, %.1f MB "
        "emitted)\n",
        static_cast<long long>(stats->requests), stats->wall_seconds,
        books_per_sec, books_per_sec_per_core, pipe_options.max_in_flight,
        stats->peak_in_flight,
        static_cast<double>(sink.bytes()) / 1e6);
    common::BenchRecord record;
    record.config = "bulk-pipe[m=32]";
    record.n = 2;  // facts per book
    record.support = static_cast<int>(pipe_lines);
    record.k = pipe_options.max_in_flight;
    record.wall_ms = stats->wall_seconds * 1e3;
    record.throughput_per_sec = books_per_sec_per_core;
    report.Add(record);
  }

  if (auto status = report.MergeToFile(report_path); !status.ok()) {
    std::fprintf(stderr, "error writing %s: %s\n", report_path.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("merged %zu records into %s\n",
              configs.size() + overlap_configs.size() + 1,
              report_path.c_str());
  return 0;
}
