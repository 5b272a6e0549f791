/// Google-benchmark micro benchmarks of the core primitives: entropy,
/// marginalization, the BSC butterfly, the answer distribution (fast and
/// Equation 2), partition refinement, Bayesian updates (copying and in
/// place), one-round selection, and encoding a run-books-sized response
/// (written straight to bytes, and through the JsonValue tree). The custom
/// main additionally times the sparse greedy at paper scale (n = 64,
/// |O| = 10^5), the in-place merge and the response write, and merges the
/// measurements into the BENCH_greedy.json baseline.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "common/bench_report.h"
#include "common/math_util.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "core/answer_model.h"
#include "core/bayes.h"
#include "core/greedy_selector.h"
#include "core/opt_selector.h"
#include "core/random_selector.h"
#include "core/sparse_refiner.h"
#include "core/utility.h"
#include "service/fusion_service.h"
#include "service/request_json.h"

namespace crowdfusion {
namespace {

core::CrowdModel Crowd() {
  auto crowd = core::CrowdModel::Create(0.8);
  CF_CHECK(crowd.ok());
  return std::move(crowd).value();
}

/// The literal -sum p log2 p over a joint's support: the log loop that
/// construction and exact merges pay (the merges in between carry the
/// logs instead).
void BM_Entropy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::JointDistribution joint =
      bench::MakeCorrelatedJoint(n, 1);
  for (auto _ : state) {
    double entropy = 0.0;
    for (const core::JointDistribution::Entry& e : joint.entries()) {
      entropy -= common::XLog2X(e.prob);
    }
    benchmark::DoNotOptimize(entropy);
  }
  state.SetComplexityN(joint.support_size());
}
BENCHMARK(BM_Entropy)->Arg(8)->Arg(12)->Arg(16)->Complexity(benchmark::oN);

void BM_MarginalizeOnto(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(n, 2);
  const std::vector<int> tasks = {0, 2, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(joint.MarginalizeOnto(tasks));
  }
}
BENCHMARK(BM_MarginalizeOnto)->Arg(8)->Arg(12)->Arg(16);

void BM_ChannelButterfly(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const core::CrowdModel crowd = Crowd();
  std::vector<double> dist(1ULL << k, 1.0 / static_cast<double>(1ULL << k));
  for (auto _ : state) {
    std::vector<double> copy = dist;
    crowd.PushThroughChannel(copy, k);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_ChannelButterfly)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_AnswerDistributionFast(benchmark::State& state) {
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(12, 3);
  const core::CrowdModel crowd = Crowd();
  const std::vector<int> tasks = {0, 3, 5, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AnswerDistribution(joint, tasks, crowd));
  }
}
BENCHMARK(BM_AnswerDistributionFast);

void BM_AnswerDistributionBruteForce(benchmark::State& state) {
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(12, 3);
  const core::CrowdModel crowd = Crowd();
  const std::vector<int> tasks = {0, 3, 5, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::AnswerDistributionBruteForce(joint, tasks, crowd));
  }
}
BENCHMARK(BM_AnswerDistributionBruteForce);

void BM_SparseRefinerCandidate(benchmark::State& state) {
  const int n = 64;
  const int support = static_cast<int>(state.range(0));
  const core::JointDistribution joint =
      bench::MakeSparseCorrelatedJoint(n, support, 5);
  const core::CrowdModel crowd = Crowd();
  core::SparsePartitionRefiner refiner(joint, crowd);
  refiner.Commit(0);
  refiner.Commit(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(refiner.EntropyWithCandidate(3));
  }
  state.SetComplexityN(joint.support_size());
}
BENCHMARK(BM_SparseRefinerCandidate)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Complexity(benchmark::oN);

/// The batched selection kernel: one pass over the support evaluating a
/// whole candidate set, forced to each tile kernel so scalar and AVX2
/// stay individually comparable across runs whatever kAuto would pick.
void BM_SparseRefinerBatchedSweep(benchmark::State& state) {
  const int support = static_cast<int>(state.range(0));
  const bool use_avx2 = state.range(1) != 0;
  if (use_avx2 && !common::CpuSupportsAvx2()) {
    state.SkipWithError("host cannot run the AVX2 kernel");
    return;
  }
  const int n = 64;
  const core::JointDistribution joint =
      bench::MakeSparseCorrelatedJoint(n, support, 5);
  const core::CrowdModel crowd = Crowd();
  core::SparsePartitionRefiner::Options options;
  options.simd = use_avx2 ? common::SimdPolicy::kForceAvx2
                          : common::SimdPolicy::kForceScalar;
  core::SparsePartitionRefiner refiner(joint, crowd, options);
  refiner.Commit(0);
  refiner.Commit(1);
  std::vector<int> candidates;
  for (int f = 2; f < n; ++f) candidates.push_back(f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(refiner.EntropiesWithCandidates(candidates));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(candidates.size()));
}
BENCHMARK(BM_SparseRefinerBatchedSweep)
    ->ArgNames({"support", "avx2"})
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1}});

void BM_SparseRefinerCommit(benchmark::State& state) {
  const core::JointDistribution joint =
      bench::MakeSparseCorrelatedJoint(64, static_cast<int>(state.range(0)),
                                       6);
  const core::CrowdModel crowd = Crowd();
  for (auto _ : state) {
    core::SparsePartitionRefiner refiner(joint, crowd);
    refiner.Commit(0);
    refiner.Commit(7);
    benchmark::DoNotOptimize(refiner.CommittedEntropyBits());
  }
}
BENCHMARK(BM_SparseRefinerCommit)->Arg(1000)->Arg(10000);

void BM_MarginalGainProfile(benchmark::State& state) {
  const int n = 64;
  const core::JointDistribution joint =
      bench::MakeSparseCorrelatedJoint(n, static_cast<int>(state.range(0)),
                                       7);
  const core::CrowdModel crowd = Crowd();
  const std::vector<int> selected = {0, 5, 9};
  std::vector<int> candidates;
  for (int f = 0; f < n; ++f) {
    if (f != 0 && f != 5 && f != 9) candidates.push_back(f);
  }
  for (auto _ : state) {
    auto gains = core::MarginalGainProfile(joint, selected, candidates,
                                           crowd);
    benchmark::DoNotOptimize(gains);
  }
}
BENCHMARK(BM_MarginalGainProfile)->Arg(1000)->Arg(10000);

void BM_SparseGreedySelect(benchmark::State& state) {
  const core::JointDistribution joint = bench::MakeSparseCorrelatedJoint(
      64, static_cast<int>(state.range(0)), 8);
  const core::CrowdModel crowd = Crowd();
  core::GreedySelector::Options options;
  options.use_pruning = true;
  options.use_preprocessing = true;
  core::GreedySelector selector(options);
  for (auto _ : state) {
    core::SelectionRequest request;
    request.joint = &joint;
    request.crowd = &crowd;
    request.k = 8;
    benchmark::DoNotOptimize(selector.Select(request));
  }
}
BENCHMARK(BM_SparseGreedySelect)->Arg(1000)->Arg(10000);

void BM_BayesUpdate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(n, 6);
  const core::CrowdModel crowd = Crowd();
  const core::AnswerSet answers{{0, 2, 4}, {true, false, true}};
  for (auto _ : state) {
    auto posterior = core::PosteriorGivenAnswers(joint, answers, crowd);
    benchmark::DoNotOptimize(posterior);
  }
}
BENCHMARK(BM_BayesUpdate)->Arg(8)->Arg(12)->Arg(16);

/// One in-place Eq. 3 merge per iteration. The answer to fact 0 alternates
/// true/false, so every pair of merges scales each output by the same
/// Pc(1 - Pc) and the joint stays where it started.
void BM_MergeAnswersInPlace(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::JointDistribution joint =
      n <= 10 ? bench::MakeCorrelatedJoint(n, 6)
              : bench::MakeSparseCorrelatedJoint(n, 10000, 6);
  const core::CrowdModel crowd = Crowd();
  core::AnswerSet answers{{0}, {true}};
  for (auto _ : state) {
    answers.answers[0] = !answers.answers[0];
    CF_CHECK(core::MergeAnswersInPlace(joint, answers, crowd).ok());
    benchmark::DoNotOptimize(joint.EntropyBits());
  }
  state.counters["support"] = joint.support_size();
}
BENCHMARK(BM_MergeAnswersInPlace)->Arg(10)->Arg(64);

void BM_GreedySelectPreprocessed(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(n, 7);
  const core::CrowdModel crowd = Crowd();
  core::GreedySelector::Options options;
  options.use_pruning = true;
  options.use_preprocessing = true;
  core::GreedySelector selector(options);
  for (auto _ : state) {
    core::SelectionRequest request;
    request.joint = &joint;
    request.crowd = &crowd;
    request.k = 3;
    benchmark::DoNotOptimize(selector.Select(request));
  }
}
BENCHMARK(BM_GreedySelectPreprocessed)->Arg(8)->Arg(12)->Arg(16);

void BM_GreedySelectBruteForce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(n, 7);
  const core::CrowdModel crowd = Crowd();
  core::GreedySelector selector;
  for (auto _ : state) {
    core::SelectionRequest request;
    request.joint = &joint;
    request.crowd = &crowd;
    request.k = 3;
    benchmark::DoNotOptimize(selector.Select(request));
  }
}
BENCHMARK(BM_GreedySelectBruteForce)->Arg(8)->Arg(12);

void BM_OptSelect(benchmark::State& state) {
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(10, 8);
  const core::CrowdModel crowd = Crowd();
  core::OptSelector selector;
  for (auto _ : state) {
    core::SelectionRequest request;
    request.joint = &joint;
    request.crowd = &crowd;
    request.k = static_cast<int>(state.range(0));
    benchmark::DoNotOptimize(selector.Select(request));
  }
}
BENCHMARK(BM_OptSelect)->Arg(1)->Arg(2)->Arg(3);

/// A response the size of one perfbench run-books op: 8 synthesized books
/// fused by CRH into dense joints of at most 10 facts, refined by greedy
/// selection against a simulated crowd, 40 tasks per book (~230 KB).
const service::FusionResponse& BooksResponse() {
  static const service::FusionResponse* const kResponse = [] {
    service::FusionRequest request;
    service::DatasetSpec dataset;
    dataset.generate.num_books = 8;
    dataset.generate.num_sources = 60;
    dataset.generate.true_variants = 5;
    dataset.generate.false_variants = 7;
    dataset.generate.seed = 4242;
    dataset.fuser.kind = "crh";
    dataset.max_facts_per_book = 10;
    request.dataset = dataset;
    request.selector.kind = "greedy";
    request.selector.use_pruning = true;
    request.selector.use_preprocessing = true;
    request.provider.kind = "simulated_crowd";
    request.provider.accuracy = 0.8;
    request.provider.seed = 4242;
    request.budget.budget_per_instance = 40;
    auto response = service::FusionService().Run(std::move(request));
    CF_CHECK(response.ok()) << response.status().ToString();
    return new service::FusionResponse(std::move(response).value());
  }();
  return *kResponse;
}

/// The served encoder: the response written straight to bytes.
void BM_WriteFusionResponse(benchmark::State& state) {
  const service::FusionResponse& response = BooksResponse();
  size_t bytes = 0;
  for (auto _ : state) {
    std::string body;
    service::WriteFusionResponse(response, body);
    benchmark::DoNotOptimize(body.data());
    benchmark::ClobberMemory();
    bytes = body.size();
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_WriteFusionResponse);

/// The reference encoder it replaced: build the JsonValue tree, dump it,
/// free it.
void BM_FusionResponseTreeDump(benchmark::State& state) {
  const service::FusionResponse& response = BooksResponse();
  for (auto _ : state) {
    std::string body = service::FusionResponseToJson(response).Dump();
    benchmark::DoNotOptimize(body.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FusionResponseTreeDump);

/// Times one full sparse greedy selection at paper scale and merges it
/// into the shared baseline file next to bench_table5_runtime's rows.
int EmitBaseline(const std::string& report_path) {
  const int n = 64;
  const int support = 100000;
  const int k = 8;
  const core::JointDistribution joint =
      bench::MakeSparseCorrelatedJoint(n, support, 42);
  const core::CrowdModel crowd = Crowd();
  core::GreedySelector::Options options;
  options.use_pruning = true;
  options.use_preprocessing = true;
  core::GreedySelector selector(options);
  core::SelectionRequest request;
  request.joint = &joint;
  request.crowd = &crowd;
  request.k = k;
  const common::Stopwatch timer;
  auto selection = selector.Select(request);
  const double seconds = timer.ElapsedSeconds();
  CF_CHECK(selection.ok()) << selection.status().ToString();

  common::BenchReport report("bench_micro_core");
  common::BenchRecord record;
  record.config = selector.name() + "[sparse]";
  record.n = n;
  record.support = joint.support_size();
  record.k = k;
  record.wall_ms = seconds * 1e3;
  record.entropy_bits = selection->entropy_bits;
  report.Add(std::move(record));

  // Per-kernel rows for the batched candidate sweep itself, so a kernel
  // regression is caught even where the end-to-end greedy would hide it.
  core::SparsePartitionRefiner::Options base_options;
  for (const bool use_avx2 : {false, true}) {
    if (use_avx2 && !common::CpuSupportsAvx2()) continue;
    core::SparsePartitionRefiner::Options refiner_options = base_options;
    refiner_options.simd = use_avx2 ? common::SimdPolicy::kForceAvx2
                                    : common::SimdPolicy::kForceScalar;
    core::SparsePartitionRefiner refiner(joint, crowd, refiner_options);
    refiner.Commit(0);
    refiner.Commit(1);
    std::vector<int> candidates;
    for (int f = 2; f < n; ++f) candidates.push_back(f);
    std::vector<double> entropies = refiner.EntropiesWithCandidates(
        candidates);  // warm-up: scratch reaches its high-water mark
    double best_seconds = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      const common::Stopwatch sweep_timer;
      entropies = refiner.EntropiesWithCandidates(candidates);
      const double sweep_seconds = sweep_timer.ElapsedSeconds();
      if (rep == 0 || sweep_seconds < best_seconds) {
        best_seconds = sweep_seconds;
      }
    }
    common::BenchRecord kernel_record;
    kernel_record.config =
        use_avx2 ? "BatchedSweep[avx2]" : "BatchedSweep[scalar]";
    kernel_record.n = n;
    kernel_record.support = joint.support_size();
    kernel_record.k = static_cast<int>(candidates.size());
    kernel_record.wall_ms = best_seconds * 1e3;
    kernel_record.entropy_bits = entropies.front();
    report.Add(kernel_record);
    std::printf("batched sweep [%s]: %d candidates over |O|=%d: %.2f ms\n",
                use_avx2 ? "avx2" : "scalar",
                static_cast<int>(candidates.size()), joint.support_size(),
                best_seconds * 1e3);
  }
  // The per-round Eq. 3 merge at run-books' shape (dense, n = 10).
  core::JointDistribution merged = bench::MakeCorrelatedJoint(10, 6);
  core::AnswerSet answers{{0}, {true}};
  double best_merge_seconds = 0.0;
  for (int rep = 0; rep < 200; ++rep) {
    answers.answers[0] = !answers.answers[0];
    const common::Stopwatch merge_timer;
    CF_CHECK(core::MergeAnswersInPlace(merged, answers, crowd).ok());
    const double merge_seconds = merge_timer.ElapsedSeconds();
    if (rep == 0 || merge_seconds < best_merge_seconds) {
      best_merge_seconds = merge_seconds;
    }
  }
  common::BenchRecord merge_record;
  merge_record.config = "MergeInPlace";
  merge_record.n = merged.num_facts();
  merge_record.support = merged.support_size();
  merge_record.k = 1;
  merge_record.wall_ms = best_merge_seconds * 1e3;
  merge_record.entropy_bits = merged.EntropyBits();
  report.Add(merge_record);
  std::printf("in-place merge: n=%d |O|=%d: %.2f us\n", merged.num_facts(),
              merged.support_size(), best_merge_seconds * 1e6);

  // Writing one run-books-sized response: n = books, support = joint
  // entries over all books, k = steps.
  const service::FusionResponse& response = BooksResponse();
  double best_write_seconds = 0.0;
  size_t bytes = 0;
  for (int rep = 0; rep < 50; ++rep) {
    const common::Stopwatch write_timer;
    std::string body;
    service::WriteFusionResponse(response, body);
    const double write_seconds = write_timer.ElapsedSeconds();
    bytes = body.size();
    if (rep == 0 || write_seconds < best_write_seconds) {
      best_write_seconds = write_seconds;
    }
  }
  common::BenchRecord write_record;
  write_record.config = "ResponseWrite";
  write_record.n = static_cast<int>(response.instances.size());
  write_record.support = 0;
  for (const service::InstanceReport& report : response.instances) {
    write_record.support += report.final_joint.support_size();
  }
  write_record.k = static_cast<int>(response.steps.size());
  write_record.wall_ms = best_write_seconds * 1e3;
  write_record.entropy_bits = -response.total_utility_bits;
  report.Add(write_record);
  std::printf("response write: %d books, %zu bytes: %.1f us\n",
              write_record.n, bytes, best_write_seconds * 1e6);

  const common::Status written = report.MergeToFile(report_path);
  if (!written.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", report_path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("sparse greedy baseline: n=%d |O|=%d k=%d %.1f ms -> %s\n", n,
              joint.support_size(), k, seconds * 1e3, report_path.c_str());
  return 0;
}

}  // namespace
}  // namespace crowdfusion

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Baseline emission is opt-in so interactive runs (--benchmark_filter,
  // --benchmark_list_tests) have no side effects; CI sets the variable.
  const char* path = std::getenv("CROWDFUSION_BENCH_REPORT");
  if (path == nullptr || path[0] == '\0') return 0;
  return crowdfusion::EmitBaseline(path);
}
