#include "crowd/adversary.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/clock.h"
#include "crowd/simulated_crowd.h"
#include "crowd/worker.h"

namespace crowdfusion::crowd {

/// Reads the role partition an AdversaryModel keeps private.
class AdversaryModelPeer {
 public:
  static AdversaryRole Role(const AdversaryModel& model, int worker) {
    return model.workers_[static_cast<size_t>(worker)].role;
  }
  static int CountRole(const AdversaryModel& model, AdversaryRole role) {
    int count = 0;
    for (int w = 0; w < model.num_workers(); ++w) {
      if (Role(model, w) == role) ++count;
    }
    return count;
  }
};

namespace {

core::AdversarySpec EnabledSpec() {
  core::AdversarySpec spec;
  spec.enabled = true;
  return spec;
}

std::unique_ptr<AdversaryModel> MustCreate(const core::AdversarySpec& spec) {
  auto model = AdversaryModel::Create(spec);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

TEST(AdversaryModelTest, CreateValidatesTheSpec) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 0;
  EXPECT_FALSE(AdversaryModel::Create(spec).ok());

  spec = EnabledSpec();
  spec.colluder_fraction = -0.1;
  EXPECT_FALSE(AdversaryModel::Create(spec).ok());

  spec = EnabledSpec();
  spec.spammer_fraction = 1.5;
  EXPECT_FALSE(AdversaryModel::Create(spec).ok());

  // Individually legal fractions whose hostile sum exceeds the pool.
  spec = EnabledSpec();
  spec.colluder_fraction = 0.6;
  spec.sybil_fraction = 0.6;
  EXPECT_FALSE(AdversaryModel::Create(spec).ok());

  spec = EnabledSpec();
  spec.drift_floor = 0.7;
  spec.drift_ceiling = 0.3;
  EXPECT_FALSE(AdversaryModel::Create(spec).ok());

  spec = EnabledSpec();
  spec.drift_ceiling = 1.5;
  EXPECT_FALSE(AdversaryModel::Create(spec).ok());
}

TEST(AdversaryModelTest, RolesPartitionHostileFirst) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 10;
  spec.colluder_fraction = 0.2;
  spec.sybil_fraction = 0.2;
  spec.spammer_fraction = 0.1;
  spec.parrot_fraction = 0.1;
  const auto model = MustCreate(spec);
  EXPECT_EQ(AdversaryModelPeer::CountRole(*model, AdversaryRole::kColluder), 2);
  EXPECT_EQ(AdversaryModelPeer::CountRole(*model, AdversaryRole::kSybil), 2);
  EXPECT_EQ(AdversaryModelPeer::CountRole(*model, AdversaryRole::kSpammer), 1);
  EXPECT_EQ(AdversaryModelPeer::CountRole(*model, AdversaryRole::kParrot), 1);
  EXPECT_EQ(AdversaryModelPeer::CountRole(*model, AdversaryRole::kHonest), 4);
  // Hostile blocks come first, honest fills the tail.
  EXPECT_EQ(AdversaryModelPeer::Role(*model, 0), AdversaryRole::kColluder);
  EXPECT_EQ(AdversaryModelPeer::Role(*model, 9), AdversaryRole::kHonest);
}

TEST(AdversaryModelTest, CollusionTargetsAreSeedDeterministic) {
  core::AdversarySpec spec = EnabledSpec();
  spec.colluder_fraction = 0.5;
  spec.collusion_target_fraction = 0.5;
  spec.seed = 777;
  const auto a = MustCreate(spec);
  const auto b = MustCreate(spec);
  int targets = 0;
  for (int fact = 0; fact < 256; ++fact) {
    EXPECT_EQ(a->IsCollusionTarget(fact), b->IsCollusionTarget(fact)) << fact;
    if (a->IsCollusionTarget(fact)) ++targets;
  }
  // Roughly the requested fraction of a large universe.
  EXPECT_GT(targets, 96);
  EXPECT_LT(targets, 160);

  spec.collusion_target_fraction = 0.0;
  EXPECT_FALSE(MustCreate(spec)->IsCollusionTarget(3));
  spec.collusion_target_fraction = 1.0;
  EXPECT_TRUE(MustCreate(spec)->IsCollusionTarget(3));
}

TEST(AdversaryModelTest, ColludersFlipTargetsRegardlessOfOrder) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 4;
  spec.colluder_fraction = 1.0;
  spec.collusion_target_fraction = 1.0;
  const auto model = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(0.9);
  for (int fact = 0; fact < 32; ++fact) {
    for (int worker = 0; worker < 4; ++worker) {
      const bool truth = (fact % 2) == 0;
      EXPECT_EQ(model->JudgeAs(worker, fact, truth,
                               data::StatementCategory::kClean, bias),
                !truth)
          << "fact " << fact << " worker " << worker;
    }
  }
}

TEST(AdversaryModelTest, ColluderCoverTrafficStaysAccurate) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 4;
  spec.colluder_fraction = 1.0;
  spec.collusion_target_fraction = 0.0;  // nothing targeted: all cover
  const auto model = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(0.9);
  int correct = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const bool truth = (i % 2) == 0;
    if (model->Judge(i % 8, truth, data::StatementCategory::kClean, bias) ==
        truth) {
      ++correct;
    }
  }
  EXPECT_NEAR(static_cast<double>(correct) / kTrials, 0.9, 0.01);
}

TEST(AdversaryModelTest, SybilsReplayOneMasterAnswerPerFact) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 8;
  spec.sybil_fraction = 1.0;
  const auto model = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(0.7);
  for (int fact = 0; fact < 64; ++fact) {
    const bool first = model->JudgeAs(fact % 8, fact, true,
                                      data::StatementCategory::kClean, bias);
    for (int worker = 0; worker < 8; ++worker) {
      EXPECT_EQ(model->JudgeAs(worker, fact, true,
                               data::StatementCategory::kClean, bias),
                first)
          << "fact " << fact << " worker " << worker;
    }
  }
}

TEST(AdversaryModelTest, SpammersIgnoreTheTruth) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 2;
  spec.spammer_fraction = 1.0;
  const auto model = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(1.0);
  int agreed = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (model->Judge(0, true, data::StatementCategory::kClean, bias)) {
      ++agreed;
    }
  }
  // A perfect-accuracy bias table cannot rescue a coin-flipping spammer.
  EXPECT_NEAR(static_cast<double>(agreed) / kTrials, 0.5, 0.01);
}

TEST(AdversaryModelTest, ParrotsEchoTheRunningMajority) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 2;
  spec.colluder_fraction = 0.5;  // worker 0 colludes, worker 1 parrots
  spec.collusion_target_fraction = 1.0;
  spec.parrot_fraction = 0.5;
  const auto model = MustCreate(spec);
  ASSERT_EQ(AdversaryModelPeer::Role(*model, 0), AdversaryRole::kColluder);
  ASSERT_EQ(AdversaryModelPeer::Role(*model, 1), AdversaryRole::kParrot);
  const WorkerBias bias = WorkerBias::Uniform(1.0);

  // Empty history parrots "true".
  EXPECT_TRUE(model->JudgeAs(1, 7, false, data::StatementCategory::kClean,
                             bias));
  // The colluder hammers "false" onto fact 3 (truth = true) three times;
  // the parrot then echoes the false-majority.
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(model->JudgeAs(0, 3, true, data::StatementCategory::kClean,
                                bias));
  }
  EXPECT_FALSE(model->JudgeAs(1, 3, true, data::StatementCategory::kClean,
                              bias));
}

TEST(AdversaryModelTest, DriftDecaysHonestAccuracyToTheFloor) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 1;
  spec.drift_per_answer = -0.2;
  spec.drift_floor = 0.1;
  spec.drift_ceiling = 0.9;
  const auto model = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(0.8);

  // Exact ruler: base + drift x answers, clamped.
  EXPECT_DOUBLE_EQ(
      model->HonestAccuracy(0, data::StatementCategory::kClean, bias), 0.8);
  (void)model->Judge(0, true, data::StatementCategory::kClean, bias);
  EXPECT_DOUBLE_EQ(
      model->HonestAccuracy(0, data::StatementCategory::kClean, bias), 0.6);
  for (int i = 0; i < 10; ++i) {
    (void)model->Judge(0, true, data::StatementCategory::kClean, bias);
  }
  EXPECT_DOUBLE_EQ(
      model->HonestAccuracy(0, data::StatementCategory::kClean, bias), 0.1);

  // The ceiling clamps upward drift symmetrically.
  core::AdversarySpec up = EnabledSpec();
  up.num_workers = 1;
  up.drift_per_answer = 0.5;
  up.drift_ceiling = 0.9;
  const auto improver = MustCreate(up);
  (void)improver->Judge(0, true, data::StatementCategory::kClean, bias);
  (void)improver->Judge(0, true, data::StatementCategory::kClean, bias);
  EXPECT_DOUBLE_EQ(
      improver->HonestAccuracy(0, data::StatementCategory::kClean, bias),
      0.9);
}

/// Per-worker share of the logged judgments on facts >= first_fact that
/// matched the truth.
std::vector<double> LoggedAccuracyByWorker(const AdversaryModel& model,
                                           int num_workers,
                                           int first_fact = 0) {
  std::vector<int> correct(static_cast<size_t>(num_workers), 0);
  std::vector<int> total(static_cast<size_t>(num_workers), 0);
  for (const AdversaryModel::Judgment& entry : model.log()) {
    if (entry.fact_id < first_fact) continue;
    const auto w = static_cast<size_t>(entry.worker);
    ++total[w];
    if (entry.answer == entry.truth) ++correct[w];
  }
  std::vector<double> accuracy(static_cast<size_t>(num_workers), 0.0);
  for (size_t w = 0; w < accuracy.size(); ++w) {
    if (total[w] > 0) {
      accuracy[w] = static_cast<double>(correct[w]) / total[w];
    }
  }
  return accuracy;
}

TEST(AdversaryModelTest, HonestWorkersBesideSpammersKeepTheirAccuracy) {
  // A half-spammer pool: workers 0-2 coin-flip, workers 3-5 stay honest
  // and answer at the bias table's 0.85.
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 6;
  spec.spammer_fraction = 0.5;
  spec.seed = 77;
  const auto model = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(0.85);
  for (int t = 0; t < 400; ++t) {
    for (int w = 0; w < spec.num_workers; ++w) {
      (void)model->JudgeAs(w, t, t % 2 == 0, data::StatementCategory::kClean,
                           bias);
    }
  }
  const std::vector<double> accuracy =
      LoggedAccuracyByWorker(*model, spec.num_workers);
  for (int w = 0; w < 3; ++w) {
    ASSERT_EQ(AdversaryModelPeer::Role(*model, w), AdversaryRole::kSpammer);
    EXPECT_NEAR(accuracy[static_cast<size_t>(w)], 0.5, 0.08) << "spammer " << w;
  }
  for (int w = 3; w < 6; ++w) {
    ASSERT_EQ(AdversaryModelPeer::Role(*model, w), AdversaryRole::kHonest);
    EXPECT_NEAR(accuracy[static_cast<size_t>(w)], 0.85, 0.06)
        << "honest worker " << w;
  }
}

TEST(AdversaryModelTest, DriftIsCountedPerWorker) {
  // Worker 0 burns 600 warm-up answers and drifts from 0.85 to the 0.55
  // floor; workers 1-2 have answered nothing and keep the base accuracy.
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 3;
  spec.drift_per_answer = -0.0005;
  spec.drift_floor = 0.55;
  spec.seed = 78;
  const auto model = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(0.85);
  const int kWarmup = 600;
  for (int t = 0; t < kWarmup; ++t) {
    (void)model->JudgeAs(0, t, true, data::StatementCategory::kClean, bias);
  }
  EXPECT_DOUBLE_EQ(
      model->HonestAccuracy(0, data::StatementCategory::kClean, bias), 0.55);
  for (int w : {1, 2}) {
    EXPECT_EQ(model->answers_by(w), 0);
    EXPECT_DOUBLE_EQ(
        model->HonestAccuracy(w, data::StatementCategory::kClean, bias), 0.85);
  }

  // Over the next 400 rounds worker 0 answers at the floor, while workers
  // 1-2 drift 0.85 -> 0.65 (about 0.75 on average).
  for (int t = 0; t < 400; ++t) {
    for (int w = 0; w < spec.num_workers; ++w) {
      (void)model->JudgeAs(w, kWarmup + t, t % 2 == 0,
                           data::StatementCategory::kClean, bias);
    }
  }
  const std::vector<double> accuracy =
      LoggedAccuracyByWorker(*model, spec.num_workers, kWarmup);
  EXPECT_NEAR(accuracy[0], 0.55, 0.08);
  for (size_t w : {1u, 2u}) {
    EXPECT_NEAR(accuracy[w], 0.75, 0.08) << "fresh worker " << w;
  }
  EXPECT_DOUBLE_EQ(
      model->HonestAccuracy(1, data::StatementCategory::kClean, bias), 0.65);
}

TEST(AdversaryModelTest, LogRecordsEveryJudgmentInOrder) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 3;
  const auto model = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(1.0);
  EXPECT_TRUE(model->log().empty());
  (void)model->JudgeAs(2, 5, true, data::StatementCategory::kClean, bias);
  (void)model->JudgeAs(0, 4, false, data::StatementCategory::kClean, bias);
  ASSERT_EQ(model->log().size(), 2u);
  EXPECT_EQ(model->log()[0].fact_id, 5);
  EXPECT_EQ(model->log()[0].worker, 2);
  EXPECT_TRUE(model->log()[0].truth);
  EXPECT_EQ(model->log()[1].fact_id, 4);
  EXPECT_EQ(model->log()[1].worker, 0);
  EXPECT_FALSE(model->log()[1].truth);
  EXPECT_EQ(model->answers_by(2), 1);
  EXPECT_EQ(model->answers_by(0), 1);
  EXPECT_EQ(model->answers_by(1), 0);
}

TEST(AdversaryModelTest, SameSeedSameStream) {
  core::AdversarySpec spec = EnabledSpec();
  spec.num_workers = 6;
  spec.colluder_fraction = 0.3;
  spec.spammer_fraction = 0.3;
  spec.seed = 12345;
  const auto a = MustCreate(spec);
  const auto b = MustCreate(spec);
  const WorkerBias bias = WorkerBias::Uniform(0.8);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a->Judge(i % 5, i % 3 == 0, data::StatementCategory::kClean,
                       bias),
              b->Judge(i % 5, i % 3 == 0, data::StatementCategory::kClean,
                       bias))
        << i;
  }
}

TEST(SimulatedCrowdAdversaryTest, RefusesDisabledSpec) {
  SimulatedCrowd crowd = SimulatedCrowd::WithUniformAccuracy(
      {true, false}, 0.8, /*seed=*/1);
  core::AdversarySpec disabled;
  EXPECT_FALSE(crowd.ConfigureAdversary(disabled).ok());
  EXPECT_EQ(crowd.adversary(), nullptr);
}

TEST(SimulatedCrowdAdversaryTest, FullCollusionFlipsEveryAnswer) {
  SimulatedCrowd crowd = SimulatedCrowd::WithUniformAccuracy(
      {true, false, true}, 1.0, /*seed=*/1);
  core::AdversarySpec spec = EnabledSpec();
  spec.colluder_fraction = 1.0;
  spec.collusion_target_fraction = 1.0;
  ASSERT_TRUE(crowd.ConfigureAdversary(spec).ok());
  ASSERT_NE(crowd.adversary(), nullptr);
  const std::vector<int> all = {0, 1, 2};
  auto answers = core::SubmitAndAwait(crowd, all, common::Clock::Real());
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, (std::vector<bool>{false, true, false}));
  EXPECT_EQ(crowd.answers_served(), 3);
  EXPECT_EQ(crowd.answers_correct(), 0);
}

}  // namespace
}  // namespace crowdfusion::crowd
