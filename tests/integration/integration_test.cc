/// End-to-end integration tests driving the whole stack: synthetic Book
/// dataset -> machine-only fusion -> correlation model -> CrowdFusion
/// engine with a simulated crowd -> metrics.

#include <gtest/gtest.h>

#include "core/crowdfusion.h"
#include "core/greedy_selector.h"
#include "core/query_based.h"
#include "crowd/simulated_crowd.h"
#include "data/book_dataset.h"
#include "data/correlation_model.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "fusion/crh.h"
#include "support/status_printing.h"

namespace crowdfusion {
namespace {

using core::CrowdModel;
using core::JointDistribution;

TEST(IntegrationTest, SingleBookPipelineDrivesMarginalsTowardTruth) {
  data::BookDatasetOptions dataset_options;
  dataset_options.num_books = 1;
  dataset_options.num_sources = 20;
  dataset_options.coverage = 0.9;
  dataset_options.seed = 99;
  auto dataset = data::GenerateBookDataset(dataset_options);
  ASSERT_TRUE(dataset.ok());
  const data::Book& book = dataset->books[0];
  ASSERT_GT(book.statements.size(), 2u);

  fusion::CrhFuser fuser;
  auto fused = fuser.Fuse(dataset->claims);
  ASSERT_TRUE(fused.ok());

  std::vector<double> marginals;
  std::vector<bool> truths;
  std::vector<data::StatementCategory> categories;
  for (size_t i = 0; i < book.statements.size(); ++i) {
    marginals.push_back(
        fused->value_probability[static_cast<size_t>(book.value_ids[i])]);
    truths.push_back(book.statements[i].is_true);
    categories.push_back(book.statements[i].category);
  }
  data::CorrelationModelOptions correlation;
  auto joint = data::BuildBookJoint(marginals, book.statements, correlation);
  ASSERT_TRUE(joint.ok());

  auto crowd_model = CrowdModel::Create(0.85);
  ASSERT_TRUE(crowd_model.ok());
  crowd::SimulatedCrowd provider(truths, categories,
                                 crowd::WorkerBias::Uniform(0.85), 7);
  core::GreedySelector::Options greedy_options;
  greedy_options.use_pruning = true;
  greedy_options.use_preprocessing = true;
  core::GreedySelector selector(greedy_options);
  core::EngineOptions engine_options;
  engine_options.budget = 60;
  engine_options.tasks_per_round = 2;
  auto engine = core::CrowdFusionEngine::Create(
      *joint, *crowd_model, &selector, &provider, engine_options);
  ASSERT_TRUE(engine.ok());
  auto records = engine->Run();
  ASSERT_TRUE(records.ok()) << records.status();

  // After 60 answers from an 85% crowd, thresholded marginals should be
  // nearly all correct.
  const std::vector<double> final_marginals = engine->current().Marginals();
  const eval::ConfusionCounts counts =
      eval::CountConfusion(final_marginals, truths);
  const double accuracy = eval::ComputeAccuracy(counts);
  EXPECT_GT(accuracy, 0.8);
  // Utility increased over the run.
  ASSERT_FALSE(records->empty());
  EXPECT_GT(records->back().utility_bits, -joint->EntropyBits() + 0.5);
}

TEST(IntegrationTest, QueryBasedSelectorWorksInsideEngine) {
  data::BookDatasetOptions dataset_options;
  dataset_options.num_books = 1;
  dataset_options.num_sources = 15;
  dataset_options.seed = 321;
  auto dataset = data::GenerateBookDataset(dataset_options);
  ASSERT_TRUE(dataset.ok());
  const data::Book& book = dataset->books[0];
  ASSERT_GE(book.statements.size(), 2u);

  std::vector<bool> truths;
  for (const data::Statement& s : book.statements) {
    truths.push_back(s.is_true);
  }
  std::vector<double> marginals(truths.size(), 0.5);
  data::CorrelationModelOptions correlation;
  auto joint = data::BuildBookJoint(marginals, book.statements, correlation);
  ASSERT_TRUE(joint.ok());

  auto crowd_model = CrowdModel::Create(0.9);
  ASSERT_TRUE(crowd_model.ok());
  crowd::SimulatedCrowd provider =
      crowd::SimulatedCrowd::WithUniformAccuracy(truths, 0.9, 17);
  core::QueryBasedGreedySelector::Options query_options;
  query_options.foi = {0};  // only the first statement matters
  core::QueryBasedGreedySelector selector(query_options);
  core::EngineOptions engine_options;
  engine_options.budget = 10;
  auto engine = core::CrowdFusionEngine::Create(
      *joint, *crowd_model, &selector, &provider, engine_options);
  ASSERT_TRUE(engine.ok());
  auto records = engine->Run();
  ASSERT_TRUE(records.ok()) << records.status();
  // The FOI marginal should be close to its truth.
  const double p0 = engine->current().Marginal(0);
  EXPECT_NEAR(p0, truths[0] ? 1.0 : 0.0, 0.2);
}

TEST(IntegrationTest, FullExperimentReproducesPaperShape) {
  // Mini-Figure-3: approx with k=1 beats random with k=1 on both metrics.
  eval::ExperimentOptions options;
  options.dataset.num_books = 20;
  options.dataset.num_sources = 15;
  options.dataset.seed = 4;
  options.budget_per_book = 6;
  options.tasks_per_round = 1;
  auto approx = RunExperiment(options);
  ASSERT_TRUE(approx.ok());
  options.selector = eval::SelectorKind::kRandom;
  auto random = RunExperiment(options);
  ASSERT_TRUE(random.ok());
  // F1 at a small budget is noisy; utility (the optimization target) must
  // strictly dominate and F1 should not be materially worse.
  EXPECT_GE(approx->final_quality.f1, random->final_quality.f1 - 0.05);
  EXPECT_GT(approx->final_utility_bits, random->final_utility_bits);
  // Both improve on the machine-only initializer.
  EXPECT_GT(approx->final_quality.f1, approx->initial_quality.f1);
}

}  // namespace
}  // namespace crowdfusion
