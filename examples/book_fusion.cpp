/// End-to-end Book-dataset scenario: the workload the paper's evaluation
/// runs, served through the FusionService facade. Generates a synthetic
/// bookstore dataset (the Book dataset substitute), fuses it with the
/// modified CRH framework, builds correlation-aware joints, and refines
/// every book against a simulated crowd — then runs the SAME typed
/// request three ways (per-book engines, the global scheduler one ticket
/// at a time, the global scheduler with overlapped tickets) to show they
/// are one API. Also demonstrates dataset persistence (TSV save/load) and
/// the quality-vs-cost curves via the (service-backed) experiment
/// harness.
///
///   ./book_fusion [num_books] [budget_per_book]

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "data/dataset_io.h"
#include "eval/experiment.h"
#include "eval/reporting.h"
#include "service/fusion_service.h"

using namespace crowdfusion;

int main(int argc, char** argv) {
  const int num_books = argc > 1 ? std::atoi(argv[1]) : 40;
  const int budget = argc > 2 ? std::atoi(argv[2]) : 30;

  eval::ExperimentOptions options;
  options.dataset.num_books = num_books;
  options.dataset.num_sources = 24;
  options.dataset.seed = 2017;
  options.budget_per_book = budget;
  options.tasks_per_round = 2;
  options.assumed_pc = 0.8;
  options.true_accuracy = 0.8;

  std::printf("Book fusion: %d books, %d sources, budget %d tasks/book\n\n",
              num_books, options.dataset.num_sources, budget);

  // Show the raw data difficulty and demonstrate dataset I/O.
  auto dataset = data::GenerateBookDataset(options.dataset);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("Raw web claims correct: %.1f%% (the paper reports ~50%%)\n",
              100.0 * dataset->FractionTrueClaims());
  const std::string tsv_path = "/tmp/crowdfusion_books.tsv";
  if (auto status = data::SaveBookDataset(*dataset, tsv_path); !status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  auto reloaded = data::LoadBookDataset(tsv_path);
  std::printf("Dataset saved to %s and reloaded: %d claims round-tripped\n\n",
              tsv_path.c_str(),
              reloaded.ok() ? reloaded->claims.num_claims() : -1);

  // A peek at one book's statements.
  const data::Book& sample = dataset->books.front();
  std::printf("Example book \"%s\" (true authors: %s):\n",
              sample.title.c_str(),
              data::RenderAuthorList(sample.true_authors,
                                     data::NameFormat::kFirstLast)
                  .c_str());
  common::TablePrinter statements({"Statement", "Category", "Truth"});
  for (const data::Statement& s : sample.statements) {
    statements.AddRow({s.text, data::StatementCategoryName(s.category),
                       s.is_true ? "true" : "false"});
  }
  statements.Print(std::cout);
  std::printf("\n");

  // One request, three ways: the same typed FusionRequest runs on the
  // per-book engine loop, then on the global scheduler with a window of
  // 1 (the "blocking" spelling) and of 4 — only `mode` and the window
  // change.
  service::FusionRequest request;
  service::DatasetSpec workload;
  workload.generate = options.dataset;
  request.dataset = workload;
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = options.true_accuracy;
  request.provider.seed = options.crowd_seed;
  request.assumed_pc = options.assumed_pc;
  request.budget.budget_per_instance = budget;
  request.budget.tasks_per_step = options.tasks_per_round;

  service::FusionService fusion_service;
  common::TablePrinter backends(
      {"Backend", "Steps", "Cost", "Utility (bits)", "Crowd acc."});
  struct Backend {
    const char* label;
    service::RunMode mode;
    int max_in_flight;
  };
  for (const Backend& backend :
       {Backend{"engine", service::RunMode::kEngine, 4},
        Backend{"pipelined[m=1]", service::RunMode::kPipelined, 1},
        Backend{"pipelined[m=4]", service::RunMode::kPipelined, 4}}) {
    request.mode = backend.mode;
    request.pipeline.max_in_flight = backend.max_in_flight;
    auto response = fusion_service.Run(request);
    if (!response.ok()) {
      std::fprintf(stderr, "%s: %s\n", backend.label,
                   response.status().ToString().c_str());
      return 1;
    }
    const double accuracy =
        response->stats.answers_served > 0
            ? static_cast<double>(response->stats.answers_correct) /
                  static_cast<double>(response->stats.answers_served)
            : 0.0;
    backends.AddRow(
        {backend.label, std::to_string(response->steps.size()),
         std::to_string(response->total_cost_spent),
         common::StrFormat("%.2f", response->total_utility_bits),
         common::StrFormat("%.3f", accuracy)});
  }
  std::printf("One request, three ways:\n");
  backends.Print(std::cout);
  std::printf("\n");

  // Quality-vs-cost curves via the experiment harness (itself a thin
  // client of the same service): full greedy against the random baseline.
  auto approx = eval::RunExperiment(options);
  if (!approx.ok()) {
    std::fprintf(stderr, "%s\n", approx.status().ToString().c_str());
    return 1;
  }
  options.selector = eval::SelectorKind::kRandom;
  auto random = eval::RunExperiment(options);
  if (!random.ok()) return 1;

  eval::PrintCurves(std::cout, "Quality vs crowd cost",
                    {*approx, *random}, /*max_rows=*/10);
  std::printf("\n");
  eval::PrintSummary(std::cout, {*approx, *random});
  std::printf(
      "\nCrowdFusion lifted F1 %.3f -> %.3f using %d crowd answers/book.\n",
      approx->initial_quality.f1, approx->final_quality.f1, budget);
  return 0;
}
