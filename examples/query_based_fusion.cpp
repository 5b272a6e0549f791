/// Query-based CrowdFusion (Section IV): the user only cares about a few
/// facts of interest (FOI), and correlated non-FOI facts are still worth
/// asking — the paper's continent/population example, instantiated on a
/// correlated joint.
///
/// Compares three strategies at the same budget:
///   * query-based greedy (maximizes Q(I|T)),
///   * the general greedy (maximizes H(T) over everything),
///   * random selection,
/// and reports the remaining FOI uncertainty H(I | answers).
///
///   ./query_based_fusion

#include <cstdio>
#include <iostream>

#include "common/math_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/greedy_selector.h"
#include "core/query_based.h"
#include "core/random_selector.h"
#include "core/scheduler.h"
#include "core/utility.h"
#include "crowd/simulated_crowd.h"
#include "data/book_dataset.h"
#include "data/correlation_model.h"

using namespace crowdfusion;

namespace {

/// Runs `budget` one-task rounds with the given selector and returns the
/// final FOI conditional entropy -Q(I|collected answers).
double RunRounds(core::TaskSelector& selector,
                 const core::JointDistribution& initial,
                 const core::CrowdModel& crowd,
                 const std::vector<bool>& truths, const std::vector<int>& foi,
                 int budget, uint64_t seed) {
  crowd::SimulatedCrowd provider =
      crowd::SimulatedCrowd::WithUniformAccuracy(truths, crowd.pc(), seed);
  // The paper's loop on one book: one ticket at a time.
  auto scheduler = core::BudgetScheduler::Create(
      crowd, &selector, {.total_budget = budget, .max_in_flight = 1});
  if (!scheduler.ok() ||
      !scheduler->AddInstance("book", initial, &provider).ok()) {
    return common::Entropy(initial.MarginalizeOnto(foi));
  }
  // A failed round leaves the joint as the last merged round left it.
  (void)scheduler->RunPipelined();
  // Residual FOI entropy of the refined joint.
  return common::Entropy(scheduler->joint(0).MarginalizeOnto(foi));
}

}  // namespace

int main() {
  // One synthetic book with correlated statements.
  data::BookDatasetOptions dataset_options;
  dataset_options.num_books = 1;
  dataset_options.num_sources = 25;
  dataset_options.coverage = 0.9;
  dataset_options.true_variants = 4;
  dataset_options.false_variants = 6;
  dataset_options.seed = 77;
  auto dataset = data::GenerateBookDataset(dataset_options);
  if (!dataset.ok()) return 1;
  const data::Book& book = dataset->books.front();

  std::vector<bool> truths;
  for (const data::Statement& s : book.statements) truths.push_back(s.is_true);
  std::vector<double> marginals(truths.size(), 0.5);
  data::CorrelationModelOptions correlation;
  auto joint = data::BuildBookJoint(marginals, book.statements, correlation);
  if (!joint.ok()) return 1;

  auto crowd = core::CrowdModel::Create(0.8);
  if (!crowd.ok()) return 1;

  // FOI: the first two statements (say, the user's query touches them).
  const std::vector<int> foi = {0, 1};
  const int budget = 6;
  std::printf(
      "Query-based CrowdFusion on \"%s\" (%zu statements, FOI = {0, 1}, "
      "budget %d, Pc = %.1f)\n\n",
      book.title.c_str(), book.statements.size(), budget, crowd->pc());

  auto initial_foi_entropy = common::Entropy(joint->MarginalizeOnto(foi));

  core::QueryBasedGreedySelector::Options query_options;
  query_options.foi = foi;
  core::QueryBasedGreedySelector query_selector(query_options);
  core::GreedySelector general_selector;
  core::RandomSelector random_selector(/*seed=*/5);

  common::TablePrinter table({"Strategy", "H(I) before", "H(I | answers)"});
  const struct {
    const char* name;
    core::TaskSelector* selector;
  } kStrategies[] = {
      {"Query-based greedy", &query_selector},
      {"General greedy", &general_selector},
      {"Random", &random_selector},
  };
  for (const auto& strategy : kStrategies) {
    const double after =
        RunRounds(*strategy.selector, *joint, *crowd, truths, foi, budget,
                  /*seed=*/99);
    table.AddRow({strategy.name,
                  common::StrFormat("%.4f", initial_foi_entropy),
                  common::StrFormat("%.4f", after)});
  }
  table.Print(std::cout);
  std::printf(
      "\nLower is better: targeting the FOI resolves its uncertainty with "
      "fewer tasks\nthan optimizing the whole fact set (Section IV).\n");
  return 0;
}
