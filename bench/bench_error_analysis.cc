/// Section V-D reproduction: the error analysis. Runs the full pipeline
/// with the category-biased crowd (workers systematically confused by
/// reordered author lists, appended organization info, and misspellings,
/// as the paper observed on gMission) and breaks the residual judgment
/// errors down by statement category.
///
///   ./bench_error_analysis [num_books] [budget]

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/logging.h"
#include "common/string_util.h"
#include <map>

#include "common/table_printer.h"
#include "core/greedy_selector.h"
#include "core/scheduler.h"
#include "crowd/simulated_crowd.h"
#include "data/book_dataset.h"
#include "data/correlation_model.h"
#include "fusion/crh.h"

using namespace crowdfusion;

namespace {

struct CategoryStats {
  int facts = 0;
  int wrong = 0;          // final judgment != ground truth
  int64_t asked = 0;      // crowd answers collected on this category
  int64_t answered_correctly = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const int num_books = argc > 1 ? std::atoi(argv[1]) : 100;
  const int budget = argc > 2 ? std::atoi(argv[2]) : 60;

  data::BookDatasetOptions dataset_options;
  dataset_options.num_books = num_books;
  dataset_options.num_sources = 24;
  dataset_options.seed = 13;
  auto dataset = data::GenerateBookDataset(dataset_options);
  CF_CHECK(dataset.ok());

  fusion::CrhFuser fuser;
  auto fused = fuser.Fuse(dataset->claims);
  CF_CHECK(fused.ok());

  // The paper measured overall worker accuracy ~0.86 with three confusing
  // categories; WorkerBias's defaults encode exactly that.
  const crowd::WorkerBias bias;
  auto crowd_model = core::CrowdModel::Create(0.8);
  CF_CHECK(crowd_model.ok());
  core::GreedySelector::Options greedy_options;
  greedy_options.use_pruning = true;
  greedy_options.use_preprocessing = true;
  core::GreedySelector selector(greedy_options);

  std::map<data::StatementCategory, CategoryStats> stats;
  uint64_t seed = 1000;
  for (const data::Book& book : dataset->books) {
    const int n = static_cast<int>(book.statements.size());
    if (n == 0) continue;
    std::vector<double> marginals(static_cast<size_t>(n));
    std::vector<bool> truths(static_cast<size_t>(n));
    std::vector<data::StatementCategory> categories(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      marginals[static_cast<size_t>(i)] =
          fused->value_probability[static_cast<size_t>(
              book.value_ids[static_cast<size_t>(i)])];
      truths[static_cast<size_t>(i)] =
          book.statements[static_cast<size_t>(i)].is_true;
      categories[static_cast<size_t>(i)] =
          book.statements[static_cast<size_t>(i)].category;
    }
    data::CorrelationModelOptions correlation;
    auto joint = data::BuildBookJoint(marginals, book.statements, correlation);
    CF_CHECK(joint.ok());
    crowd::SimulatedCrowd provider(truths, categories, bias, seed++);
    // The paper's per-book loop: one book, one ticket at a time.
    auto scheduler = core::BudgetScheduler::Create(
        *crowd_model, &selector,
        {.total_budget = budget, .max_in_flight = 1});
    CF_CHECK(scheduler.ok());
    CF_CHECK(scheduler
                 ->AddInstance(book.isbn, std::move(joint).value(), &provider)
                 .ok());
    auto records = scheduler->RunPipelined();
    CF_CHECK(records.ok());
    for (const core::BudgetScheduler::StepRecord& record : *records) {
      for (size_t i = 0; i < record.tasks.size(); ++i) {
        const int fact = record.tasks[i];
        CategoryStats& cs = stats[categories[static_cast<size_t>(fact)]];
        ++cs.asked;
        if (record.answers[i] == truths[static_cast<size_t>(fact)]) {
          ++cs.answered_correctly;
        }
      }
    }

    const std::vector<double> final_marginals =
        scheduler->joint(0).Marginals();
    for (int i = 0; i < n; ++i) {
      CategoryStats& cs = stats[categories[static_cast<size_t>(i)]];
      ++cs.facts;
      const bool predicted = final_marginals[static_cast<size_t>(i)] >= 0.5;
      if (predicted != truths[static_cast<size_t>(i)]) ++cs.wrong;
    }
  }

  std::printf(
      "Section V-D — residual error breakdown by statement category\n"
      "(biased crowd: base accuracy %.2f; reordered %.2f; additional-info "
      "%.2f; misspelling %.2f)\n\n",
      bias.base_accuracy, bias.reordered_accuracy,
      bias.additional_info_accuracy, bias.misspelling_accuracy);
  common::TablePrinter table({"Category", "Facts", "Final errors",
                              "Error rate", "Crowd accuracy on asked"});
  int64_t total_asked = 0;
  int64_t total_correct = 0;
  for (const auto& [category, cs] : stats) {
    table.AddRow(
        {data::StatementCategoryName(category), std::to_string(cs.facts),
         std::to_string(cs.wrong),
         common::StrFormat("%.3f",
                           cs.facts ? static_cast<double>(cs.wrong) /
                                          cs.facts
                                    : 0.0),
         common::StrFormat("%.3f",
                           cs.asked ? static_cast<double>(
                                          cs.answered_correctly) /
                                          static_cast<double>(cs.asked)
                                    : 0.0)});
    total_asked += cs.asked;
    total_correct += cs.answered_correctly;
  }
  table.Print(std::cout);
  std::printf(
      "\nOverall crowd accuracy: %.3f (paper measured ~0.86 on clean "
      "statements, lower on the confusing categories)\n",
      total_asked ? static_cast<double>(total_correct) /
                        static_cast<double>(total_asked)
                  : 0.0);
  std::printf(
      "Expected shape (paper Section V-D): Reordered statements dominate "
      "false negatives;\nAdditionalInfo and Misspelling statements dominate "
      "false positives; Clean/WrongAuthor\nstatements are judged nearly "
      "perfectly.\n");
  return 0;
}
