/// Adaptive global budget allocation (the paper's Section V-D suggestion,
/// implemented): instead of a fixed budget B per book, one global budget is
/// spent step by step on whichever book's best next task promises the
/// largest expected quality gain. Statement-rich, uncertain books attract
/// more tasks; easy books stop consuming budget early.
///
/// The example also calibrates the crowd with a gold pre-test
/// (Section V-C3) before trusting its answers.
///
///   ./adaptive_budget [num_books] [global_budget]

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/greedy_selector.h"
#include "core/scheduler.h"
#include "crowd/accuracy_estimator.h"
#include "crowd/simulated_crowd.h"
#include "data/book_dataset.h"
#include "data/correlation_model.h"
#include "eval/metrics.h"
#include "fusion/crh.h"

using namespace crowdfusion;

int main(int argc, char** argv) {
  const int num_books = argc > 1 ? std::atoi(argv[1]) : 25;
  const int global_budget = argc > 2 ? std::atoi(argv[2]) : 250;

  data::BookDatasetOptions dataset_options;
  dataset_options.num_books = num_books;
  dataset_options.num_sources = 20;
  dataset_options.seed = 31;
  auto dataset = data::GenerateBookDataset(dataset_options);
  if (!dataset.ok()) return 1;

  fusion::CrhFuser fuser;
  auto fused = fuser.Fuse(dataset->claims);
  if (!fused.ok()) return 1;

  // Calibrate the crowd on gold tasks first (the real crowd here is a
  // simulator with true accuracy 0.83 that the system does not know).
  const double kTrueAccuracy = 0.83;
  std::vector<bool> gold_truths = {true, false, true, false, true,
                                   false, true, false};
  std::vector<int> gold_ids = {0, 1, 2, 3, 4, 5, 6, 7};
  crowd::SimulatedCrowd gold_crowd = crowd::SimulatedCrowd::WithUniformAccuracy(
      gold_truths, kTrueAccuracy, /*seed=*/404);
  auto estimate = crowd::EstimateAccuracy(gold_crowd, gold_ids, gold_truths,
                                          /*repetitions=*/40);
  if (!estimate.ok()) return 1;
  std::printf(
      "Gold pre-test: %d/%d correct -> Pc estimate %.3f, 95%% Wilson "
      "interval [%.3f, %.3f] (true accuracy %.2f)\n\n",
      estimate->correct, estimate->trials, estimate->mean, estimate->lower,
      estimate->upper, kTrueAccuracy);
  auto crowd_model = estimate->ToCrowdModel();
  if (!crowd_model.ok()) return 1;

  core::GreedySelector::Options greedy_options;
  greedy_options.use_pruning = true;
  greedy_options.use_preprocessing = true;
  core::GreedySelector selector(greedy_options);

  core::BudgetScheduler::Options scheduler_options;
  scheduler_options.total_budget = global_budget;
  scheduler_options.max_in_flight = 1;  // one ticket at a time
  auto scheduler = core::BudgetScheduler::Create(*crowd_model, &selector,
                                                 scheduler_options);
  if (!scheduler.ok()) return 1;

  std::vector<std::unique_ptr<crowd::SimulatedCrowd>> providers;
  std::vector<std::vector<bool>> truths_per_book;
  data::CorrelationModelOptions correlation;
  uint64_t seed = 500;
  for (const data::Book& book : dataset->books) {
    const int n = static_cast<int>(book.statements.size());
    if (n == 0) continue;
    std::vector<double> marginals;
    std::vector<bool> truths;
    std::vector<data::StatementCategory> categories;
    for (int i = 0; i < n; ++i) {
      marginals.push_back(fused->value_probability[static_cast<size_t>(
          book.value_ids[static_cast<size_t>(i)])]);
      truths.push_back(book.statements[static_cast<size_t>(i)].is_true);
      categories.push_back(book.statements[static_cast<size_t>(i)].category);
    }
    auto joint =
        data::BuildBookJoint(marginals, book.statements, correlation);
    if (!joint.ok()) return 1;
    providers.push_back(std::make_unique<crowd::SimulatedCrowd>(
        truths, categories, crowd::WorkerBias::Uniform(kTrueAccuracy),
        seed++));
    truths_per_book.push_back(truths);
    if (!scheduler->AddInstance(book.title, std::move(joint).value(),
                                providers.back().get())
             .ok()) {
      return 1;
    }
  }

  const double utility_before = scheduler->TotalUtilityBits();
  auto records = scheduler->RunPipelined();
  if (!records.ok()) {
    std::fprintf(stderr, "%s\n", records.status().ToString().c_str());
    return 1;
  }

  eval::ConfusionCounts counts;
  for (int i = 0; i < scheduler->num_instances(); ++i) {
    counts += eval::CountConfusion(scheduler->joint(i).Marginals(),
                                   truths_per_book[static_cast<size_t>(i)]);
  }
  const eval::PrecisionRecallF1 prf = eval::ComputeF1(counts);

  std::printf("Global budget %d over %d books: utility %.2f -> %.2f bits, "
              "final F1 %.4f\n\n",
              global_budget, scheduler->num_instances(), utility_before,
              scheduler->TotalUtilityBits(), prf.f1);

  // How unevenly was the budget spent?
  common::TablePrinter table({"Book", "Statements", "Tasks spent"});
  int shown = 0;
  for (int i = 0; i < scheduler->num_instances() && shown < 10; ++i) {
    if (scheduler->cost_spent(i) == 0) continue;
    table.AddRow({scheduler->name(i),
                  std::to_string(scheduler->joint(i).num_facts()),
                  std::to_string(scheduler->cost_spent(i))});
    ++shown;
  }
  table.Print(std::cout);
  std::printf(
      "\nBudget concentrates on uncertain, statement-rich books instead of "
      "a flat B per book.\n");
  return 0;
}
