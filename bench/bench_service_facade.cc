/// Facade-overhead micro-bench: the same multi-book workload is served
/// twice — once through a hand-wired BudgetScheduler (the direct API) and
/// once through service::FusionService, both one ticket at a time
/// (pipelined, window 1) — and the run asserts that the facade costs < 5%
/// extra wall time. The service layer is supposed to be a boundary, not a
/// tax: it builds the same scheduler from registries and then steps it,
/// so everything but session construction is shared code.
///
/// Each variant runs `reps` times; the MINIMUM wall time per variant is
/// compared (minimum, not mean, so scheduler noise on shared CI runners
/// cannot fail the gate spuriously), plus a small absolute slack for
/// sub-millisecond runs. Emits BENCH_service_facade.json (BenchReport
/// schema; `wall_ms` is the per-run minimum, `n` facts/book, `support`
/// books, `k` tasks/step). Exits nonzero when the gate fails, so CI's
/// bench-smoke job enforces it.
///
/// usage: bench_service_facade [books] [facts] [budget_per_book]
///                             [tasks_per_step] [reps] [report.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_report.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/greedy_selector.h"
#include "core/scheduler.h"
#include "crowd/simulated_crowd.h"
#include "service/fusion_service.h"

using namespace crowdfusion;

namespace {

constexpr double kPc = 0.8;
constexpr double kMaxOverheadFraction = 0.05;
/// Absolute slack: below this scale, "5%" is measurement noise.
constexpr double kAbsoluteSlackMs = 2.0;

struct Workload {
  int books = 24;
  int facts = 8;
  int budget_per_book = 8;
  int tasks_per_step = 2;
  int reps = 5;
};

struct Instances {
  std::vector<core::JointDistribution> joints;
  std::vector<std::vector<bool>> truths;
};

Instances MakeInstances(const Workload& workload) {
  Instances instances;
  common::Rng rng(20174);
  for (int b = 0; b < workload.books; ++b) {
    std::vector<double> marginals(static_cast<size_t>(workload.facts));
    for (double& m : marginals) m = rng.NextUniform(0.25, 0.75);
    auto joint = core::JointDistribution::FromIndependentMarginals(marginals);
    CF_CHECK(joint.ok()) << joint.status().ToString();
    instances.joints.push_back(std::move(joint).value());
    std::vector<bool> truths(static_cast<size_t>(workload.facts));
    for (size_t f = 0; f < truths.size(); ++f) {
      truths[f] = rng.NextBernoulli(0.5);
    }
    instances.truths.push_back(std::move(truths));
  }
  return instances;
}

/// The direct API: exactly what a pre-facade caller wired by hand.
double RunDirectOnceMs(const Workload& workload, const Instances& instances,
                       double* utility_out) {
  common::Stopwatch stopwatch;
  auto crowd = core::CrowdModel::Create(kPc);
  CF_CHECK(crowd.ok());
  core::GreedySelector::Options greedy;
  greedy.use_pruning = true;
  greedy.use_preprocessing = true;
  core::GreedySelector selector(greedy);
  core::BudgetScheduler::Options options;
  options.total_budget = workload.budget_per_book * workload.books;
  options.tasks_per_step = workload.tasks_per_step;
  options.max_in_flight = 1;
  auto scheduler = core::BudgetScheduler::Create(*crowd, &selector, options);
  CF_CHECK(scheduler.ok());
  std::vector<std::unique_ptr<crowd::SimulatedCrowd>> crowds;
  for (size_t i = 0; i < instances.joints.size(); ++i) {
    crowds.push_back(std::make_unique<crowd::SimulatedCrowd>(
        crowd::SimulatedCrowd::WithUniformAccuracy(
            instances.truths[i], kPc, 9000 + static_cast<uint64_t>(i))));
    CF_CHECK(scheduler
                 ->AddInstance("book" + std::to_string(i),
                               instances.joints[i], crowds.back().get())
                 .ok());
  }
  auto records = scheduler->RunPipelined();
  CF_CHECK(records.ok()) << records.status().ToString();
  *utility_out = scheduler->TotalUtilityBits();
  return stopwatch.ElapsedSeconds() * 1e3;
}

/// The same workload through the typed request/response facade.
double RunServiceOnceMs(const Workload& workload, const Instances& instances,
                        double* utility_out) {
  common::Stopwatch stopwatch;
  service::FusionRequest request;
  request.mode = service::RunMode::kPipelined;
  request.pipeline.max_in_flight = 1;
  for (size_t i = 0; i < instances.joints.size(); ++i) {
    service::InstanceSpec instance;
    instance.name = "book" + std::to_string(i);
    instance.joint = instances.joints[i];
    instance.truths = instances.truths[i];
    request.instances.push_back(std::move(instance));
  }
  request.selector.kind = "greedy";
  request.selector.use_pruning = true;
  request.selector.use_preprocessing = true;
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = kPc;
  request.provider.seed = 9000;
  request.assumed_pc = kPc;
  request.budget.budget_per_instance = workload.budget_per_book;
  request.budget.tasks_per_step = workload.tasks_per_step;
  service::FusionService fusion_service;
  auto response = fusion_service.Run(std::move(request));
  CF_CHECK(response.ok()) << response.status().ToString();
  *utility_out = response->total_utility_bits;
  return stopwatch.ElapsedSeconds() * 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  Workload workload;
  if (argc > 1) workload.books = std::atoi(argv[1]);
  if (argc > 2) workload.facts = std::atoi(argv[2]);
  if (argc > 3) workload.budget_per_book = std::atoi(argv[3]);
  if (argc > 4) workload.tasks_per_step = std::atoi(argv[4]);
  if (argc > 5) workload.reps = std::atoi(argv[5]);
  const std::string report_path = argc > 6 ? argv[6] : "";

  const Instances instances = MakeInstances(workload);
  std::printf(
      "facade overhead bench: %d books x %d facts, budget %d/book, k=%d, "
      "%d reps\n",
      workload.books, workload.facts, workload.budget_per_book,
      workload.tasks_per_step, workload.reps);

  double direct_min_ms = 0.0;
  double service_min_ms = 0.0;
  double direct_utility = 0.0;
  double service_utility = 0.0;
  for (int rep = 0; rep < workload.reps; ++rep) {
    const double direct_ms =
        RunDirectOnceMs(workload, instances, &direct_utility);
    const double service_ms =
        RunServiceOnceMs(workload, instances, &service_utility);
    direct_min_ms =
        rep == 0 ? direct_ms : std::min(direct_min_ms, direct_ms);
    service_min_ms =
        rep == 0 ? service_ms : std::min(service_min_ms, service_ms);
    std::printf("  rep %d: direct %.3f ms, service %.3f ms\n", rep,
                direct_ms, service_ms);
  }

  // Identical seeds must mean identical physics: any utility difference
  // is a facade bug, not an overhead question.
  if (direct_utility != service_utility) {
    std::fprintf(stderr,
                 "FAIL: facade changed the result (direct %.17g vs "
                 "service %.17g bits)\n",
                 direct_utility, service_utility);
    return 1;
  }

  const double overhead_ms = service_min_ms - direct_min_ms;
  const double overhead_fraction =
      direct_min_ms > 0 ? overhead_ms / direct_min_ms : 0.0;
  std::printf(
      "direct min %.3f ms, service min %.3f ms, overhead %.3f ms "
      "(%.2f%%), final utility %.4f bits\n",
      direct_min_ms, service_min_ms, overhead_ms, 100.0 * overhead_fraction,
      service_utility);

  if (!report_path.empty()) {
    common::BenchReport report("bench_service_facade");
    common::BenchRecord record;
    record.config = "direct_scheduler";
    record.n = workload.facts;
    record.support = workload.books;
    record.k = workload.tasks_per_step;
    record.wall_ms = direct_min_ms;
    record.entropy_bits = direct_utility;
    report.Add(record);
    record.config = "service_facade";
    record.wall_ms = service_min_ms;
    record.entropy_bits = service_utility;
    report.Add(record);
    if (auto status = report.MergeToFile(report_path); !status.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", report_path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", report_path.c_str());
  }

  if (overhead_ms > kAbsoluteSlackMs &&
      overhead_fraction > kMaxOverheadFraction) {
    std::fprintf(stderr,
                 "FAIL: facade overhead %.2f%% exceeds the %.0f%% budget\n",
                 100.0 * overhead_fraction, 100.0 * kMaxOverheadFraction);
    return 1;
  }
  std::printf("PASS: facade overhead within %.0f%%\n",
              100.0 * kMaxOverheadFraction);
  return 0;
}
