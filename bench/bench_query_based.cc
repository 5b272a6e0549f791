/// Section IV evaluation: query-based CrowdFusion. For a sweep of budgets,
/// measures the residual uncertainty of the facts of interest H(I | Ans)
/// under three strategies — query-based greedy, the general greedy, and
/// random — averaged over correlated books. The query-based selector
/// should reach any given FOI confidence with fewer tasks ("if we are not
/// interested in all aspects, we can get higher accuracy by asking fewer
/// tasks").
///
///   ./bench_query_based [num_books] [max_budget]

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/string_util.h"

#include "bench_util.h"
#include "common/math_util.h"
#include "common/table_printer.h"
#include "core/greedy_selector.h"
#include "core/query_based.h"
#include "core/random_selector.h"
#include "core/scheduler.h"
#include "crowd/simulated_crowd.h"

using namespace crowdfusion;

namespace {

/// Residual FOI entropy after `budget` single-task rounds.
double RunRounds(core::TaskSelector& selector,
                 const core::JointDistribution& initial,
                 const core::CrowdModel& crowd,
                 const std::vector<bool>& truths, const std::vector<int>& foi,
                 int budget, uint64_t seed) {
  crowd::SimulatedCrowd provider =
      crowd::SimulatedCrowd::WithUniformAccuracy(truths, crowd.pc(), seed);
  auto scheduler = core::BudgetScheduler::Create(
      crowd, &selector, {.total_budget = budget, .max_in_flight = 1});
  CF_CHECK(scheduler.ok());
  CF_CHECK(scheduler->AddInstance("book", initial, &provider).ok());
  CF_CHECK(scheduler->RunPipelined().ok());
  return common::Entropy(scheduler->joint(0).MarginalizeOnto(foi));
}

}  // namespace

int main(int argc, char** argv) {
  const int num_books = argc > 1 ? std::atoi(argv[1]) : 25;
  const int max_budget = argc > 2 ? std::atoi(argv[2]) : 8;
  const int kFacts = 8;
  const std::vector<int> foi = {0, 1};

  auto crowd = core::CrowdModel::Create(0.8);
  CF_CHECK(crowd.ok());

  std::printf(
      "Query-based CrowdFusion: mean residual H(I | answers) in bits over "
      "%d correlated books\n(n = %d facts, FOI = {0, 1}, Pc = %.1f; lower "
      "is better)\n\n",
      num_books, kFacts, crowd->pc());

  common::TablePrinter table(
      {"Budget", "Query-based", "General greedy", "Random"});
  for (int budget = 0; budget <= max_budget; ++budget) {
    double sums[3] = {0.0, 0.0, 0.0};
    for (int b = 0; b < num_books; ++b) {
      const core::JointDistribution joint =
          bench::MakeCorrelatedJoint(kFacts, 500 + static_cast<uint64_t>(b));
      // Ground truth: sample a world from the joint itself.
      common::Rng rng(9000 + static_cast<uint64_t>(b));
      std::vector<double> weights;
      for (const auto& entry : joint.entries()) weights.push_back(entry.prob);
      const int world = rng.SampleDiscrete(weights);
      const uint64_t truth_mask =
          joint.entries()[static_cast<size_t>(world)].mask;
      std::vector<bool> truths;
      for (int f = 0; f < joint.num_facts(); ++f) {
        truths.push_back((truth_mask >> f) & 1ULL);
      }

      core::QueryBasedGreedySelector::Options query_options;
      query_options.foi = foi;
      core::QueryBasedGreedySelector query_selector(query_options);
      core::GreedySelector general;
      core::RandomSelector random(static_cast<uint64_t>(b) + 1);
      core::TaskSelector* selectors[3] = {&query_selector, &general, &random};
      for (int s = 0; s < 3; ++s) {
        sums[s] += RunRounds(*selectors[s], joint, *crowd, truths, foi,
                             budget, 777 + static_cast<uint64_t>(b));
      }
    }
    table.AddRow({std::to_string(budget),
                  common::StrFormat("%.4f", sums[0] / num_books),
                  common::StrFormat("%.4f", sums[1] / num_books),
                  common::StrFormat("%.4f", sums[2] / num_books)});
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected shape (Section IV): the query-based selector drives "
      "H(I|Ans) down fastest;\nthe general greedy spends budget on facts "
      "irrelevant to I; random is worst.\n");
  return 0;
}
