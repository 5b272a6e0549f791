#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <utility>

#include "common/random.h"
#include "common/string_util.h"
#include "net/http.h"
#include "perfbench.h"
#include "service/request_json.h"

namespace perfbench {

using cf::common::Result;
using cf::common::Status;
using cf::service::FusionRequest;
using cf::service::InstanceSpec;
using cf::service::RunMode;

namespace {

/// Seeds travel as JSON integers; keep them well inside int64.
uint64_t NextSeed(cf::common::Rng& rng) { return rng.NextUint64() >> 33; }

std::vector<bool> RandomBits(cf::common::Rng& rng, int n) {
  std::vector<bool> bits(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    bits[static_cast<size_t>(i)] = rng.NextBernoulli(0.5);
  }
  return bits;
}

/// The bench_http request shape: 2 books x 4 independent facts, a scripted
/// crowd answering the gold labels, budget 4 per book, engine mode.
Result<FusionRequest> SmallRequest(cf::common::Rng& rng, int index) {
  FusionRequest request;
  request.mode = RunMode::kEngine;
  request.label = cf::common::StrFormat("run-small-%d", index);
  const std::vector<bool> truths = RandomBits(rng, 4);
  for (int b = 0; b < 2; ++b) {
    std::vector<double> marginals(4);
    for (double& m : marginals) m = rng.NextUniform(0.25, 0.75);
    InstanceSpec instance;
    instance.name = cf::common::StrFormat("b%d", b);
    CF_ASSIGN_OR_RETURN(instance.joint,
                        cf::core::JointDistribution::FromIndependentMarginals(
                            marginals));
    instance.truths = truths;
    request.instances.push_back(std::move(instance));
  }
  request.provider.kind = "scripted";
  request.provider.script = truths;
  request.budget.budget_per_instance = 4;
  return request;
}

/// The paper's pipeline in one call: synthesize 8 books from 60 sources,
/// fuse with CRH, build dense correlation-aware joints over at most 10
/// facts (selection cost grows as 2^n, so a 12-fact cap let a pool's few
/// 12-fact books swing its cost by 10% from seed to seed), refine each book
/// with greedy selection (pruning + preprocessing) against a simulated
/// crowd of accuracy 0.8, 40 tasks per book.
FusionRequest BooksRequest(cf::common::Rng& rng, int index) {
  FusionRequest request;
  request.mode = RunMode::kEngine;
  request.label = cf::common::StrFormat("run-books-%d", index);
  cf::service::DatasetSpec dataset;
  dataset.generate.num_books = 8;
  dataset.generate.num_sources = 60;
  dataset.generate.true_variants = 5;
  dataset.generate.false_variants = 7;
  dataset.generate.seed = NextSeed(rng);
  dataset.fuser.kind = "crh";
  dataset.max_facts_per_book = 10;
  request.dataset = dataset;
  request.selector.kind = "greedy";
  request.selector.use_pruning = true;
  request.selector.use_preprocessing = true;
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = 0.8;
  request.provider.seed = NextSeed(rng);
  request.budget.budget_per_instance = 40;
  return request;
}

/// One book of 8 correlated facts over all 256 outputs: independent
/// marginals tilted toward a random anchor output, so facts co-vary.
Result<cf::core::JointDistribution> CorrelatedJoint(cf::common::Rng& rng) {
  constexpr int kFacts = 8;
  std::vector<double> marginals(kFacts);
  for (double& m : marginals) m = rng.NextUniform(0.2, 0.8);
  const uint64_t anchor = rng.NextBounded(1u << kFacts);
  const double coupling = rng.NextUniform(0.5, 1.5);
  std::vector<double> probs(size_t{1} << kFacts);
  for (uint64_t mask = 0; mask < probs.size(); ++mask) {
    double p = 1.0;
    for (int f = 0; f < kFacts; ++f) {
      const bool bit = (mask >> f) & 1u;
      p *= bit ? marginals[static_cast<size_t>(f)]
               : 1.0 - marginals[static_cast<size_t>(f)];
    }
    const int agree =
        kFacts - __builtin_popcountll((mask ^ anchor) & 0xFFu);
    probs[mask] = p * std::exp(coupling * (2.0 * agree / kFacts - 1.0));
  }
  return cf::core::JointDistribution::FromDense(kFacts, std::move(probs),
                                                /*normalize=*/true);
}

/// A 1-book pipelined session (k = 1, budget 8) whose crowd is remote: an
/// "http" provider hosting simulated_crowd (accuracy 0.8, lognormal
/// latency with a 5 ms median) on the in-process crowd server.
Result<FusionRequest> SessionRequest(cf::common::Rng& rng, int index,
                                     const std::string& crowd_endpoint) {
  FusionRequest request;
  request.mode = RunMode::kPipelined;
  request.label = cf::common::StrFormat("session-crowd-%d", index);
  InstanceSpec instance;
  instance.name = "book";
  CF_ASSIGN_OR_RETURN(instance.joint, CorrelatedJoint(rng));
  instance.truths = RandomBits(rng, 8);
  request.instances.push_back(std::move(instance));
  request.provider.kind = "http";
  request.provider.endpoint = crowd_endpoint;
  request.provider.universe_kind = "simulated_crowd";
  request.provider.accuracy = 0.8;
  request.provider.seed = NextSeed(rng);
  request.provider.latency_median_seconds = 0.005;
  request.provider.latency_sigma = 0.5;
  request.provider.latency_seed = NextSeed(rng);
  request.budget.budget_per_instance = 8;
  request.budget.tasks_per_step = 1;
  return request;
}

}  // namespace

Result<WorkloadConfig> FindWorkload(const std::string& name) {
  WorkloadConfig config;
  config.name = name;
  if (name == "run-small") {
    config.pool_size = 64;
    config.open_rate = 2000.0;
  } else if (name == "run-books") {
    config.pool_size = 64;
    config.open_rate = 20.0;
  } else if (name == "session-crowd") {
    config.kind = OpKind::kSession;
    config.pool_size = 64;
    config.closed_callers = 4;
  } else {
    return Status::InvalidArgument("unknown workload \"" + name + "\"");
  }
  return config;
}

Expected ExpectedFromResponse(const cf::service::FusionResponse& response) {
  Expected expected;
  expected.total_cost_spent = response.total_cost_spent;
  expected.total_utility_bits = response.total_utility_bits;
  for (const auto& report : response.instances) {
    expected.instance_utility_bits.push_back(report.utility_bits);
    expected.final_marginals.push_back(report.final_marginals);
  }
  return expected;
}

Result<std::vector<PoolItem>> BuildPool(
    const WorkloadConfig& config, uint64_t seed,
    const std::string& crowd_endpoint,
    const cf::service::FusionService& service) {
  cf::common::Rng rng(seed);
  std::vector<PoolItem> pool;
  pool.reserve(static_cast<size_t>(config.pool_size));
  for (int i = 0; i < config.pool_size; ++i) {
    PoolItem item;
    item.index = static_cast<size_t>(i);
    if (config.name == "run-small") {
      CF_ASSIGN_OR_RETURN(item.request, SmallRequest(rng, i));
    } else if (config.name == "run-books") {
      item.request = BooksRequest(rng, i);
    } else {
      CF_ASSIGN_OR_RETURN(item.request,
                          SessionRequest(rng, i, crowd_endpoint));
    }
    item.body = cf::service::FusionRequestToJson(item.request).Dump();
    cf::net::HttpRequest http;
    http.method = "POST";
    http.target =
        config.kind == OpKind::kRun ? "/v1/fusion:run" : "/v1/sessions";
    http.headers.push_back({"Content-Type", "application/json"});
    http.body = item.body;
    item.framed = cf::net::SerializeRequest(http, "127.0.0.1");
    CF_ASSIGN_OR_RETURN(const std::vector<InstanceSpec> workload,
                        service.MaterializeWorkload(item.request));
    for (const InstanceSpec& instance : workload) {
      item.truths.push_back(instance.truths);
      item.initial_utility_bits -= instance.joint.EntropyBits();
    }
    pool.push_back(std::move(item));
  }
  return pool;
}

Status ComputeExpected(std::vector<PoolItem>* pool,
                       const cf::service::FusionService& service,
                       int threads) {
  std::atomic<size_t> next{0};
  std::vector<Status> errors(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = next++; i < pool->size(); i = next++) {
        PoolItem& item = (*pool)[i];
        auto response = service.Run(item.request);
        if (!response.ok()) {
          errors[static_cast<size_t>(t)] = response.status();
          return;
        }
        item.expected = ExpectedFromResponse(*response);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const Status& error : errors) CF_RETURN_IF_ERROR(error);
  return Status::Ok();
}

}  // namespace perfbench
