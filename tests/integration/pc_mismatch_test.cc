/// Integration properties around crowd-model mismatch: the system assumes
/// a Pc that may differ from the simulated workers' true accuracy
/// (Section V-C3's calibration discussion).

#include <gtest/gtest.h>

#include "core/bayes.h"
#include "core/crowdfusion.h"
#include "core/greedy_selector.h"
#include "crowd/simulated_crowd.h"
#include "eval/metrics.h"
#include "support/oracles.h"

namespace crowdfusion {
namespace {

using core::CrowdModel;
using core::JointDistribution;

/// Mean final utility over `repeats` runs of a 6-fact uniform joint
/// against a crowd of true accuracy `true_pc`, with the engine assuming
/// `assumed_pc`.
double MeanFinalUtility(double assumed_pc, double true_pc, int repeats) {
  auto joint = core::Uniform(6);
  EXPECT_TRUE(joint.ok());
  auto crowd_model = CrowdModel::Create(assumed_pc);
  EXPECT_TRUE(crowd_model.ok());
  const std::vector<bool> truths = {true,  false, true,
                                    false, true,  false};
  double total = 0.0;
  for (int r = 0; r < repeats; ++r) {
    crowd::SimulatedCrowd provider = crowd::SimulatedCrowd::WithUniformAccuracy(
        truths, true_pc, 5000 + static_cast<uint64_t>(r));
    core::GreedySelector selector;
    core::EngineOptions options;
    options.budget = 24;
    options.tasks_per_round = 2;
    auto engine = core::CrowdFusionEngine::Create(
        *joint, *crowd_model, &selector, &provider, options);
    EXPECT_TRUE(engine.ok());
    auto records = engine->Run();
    EXPECT_TRUE(records.ok());
    total += -engine->current().EntropyBits();
  }
  return total / repeats;
}

/// Mean judgment accuracy (thresholded marginals vs truth) under the same
/// protocol.
double MeanFinalAccuracy(double assumed_pc, double true_pc, int repeats) {
  auto joint = core::Uniform(6);
  EXPECT_TRUE(joint.ok());
  auto crowd_model = CrowdModel::Create(assumed_pc);
  EXPECT_TRUE(crowd_model.ok());
  const std::vector<bool> truths = {true,  false, true,
                                    false, true,  false};
  double total = 0.0;
  for (int r = 0; r < repeats; ++r) {
    crowd::SimulatedCrowd provider = crowd::SimulatedCrowd::WithUniformAccuracy(
        truths, true_pc, 7000 + static_cast<uint64_t>(r));
    core::GreedySelector selector;
    core::EngineOptions options;
    options.budget = 24;
    options.tasks_per_round = 2;
    auto engine = core::CrowdFusionEngine::Create(
        *joint, *crowd_model, &selector, &provider, options);
    EXPECT_TRUE(engine.ok());
    auto records = engine->Run();
    EXPECT_TRUE(records.ok());
    total += eval::ComputeAccuracy(
        eval::CountConfusion(engine->current().Marginals(), truths));
  }
  return total / repeats;
}

TEST(PcMismatchTest, OverconfidentAssumptionOvershootsUtility) {
  // Assuming Pc = 0.99 against a 0.7 crowd inflates the reported utility
  // (the system believes noisy answers too much) relative to the honest
  // assumption.
  const double honest = MeanFinalUtility(0.7, 0.7, 12);
  const double overconfident = MeanFinalUtility(0.99, 0.7, 12);
  EXPECT_GT(overconfident, honest);
}

TEST(PcMismatchTest, OverconfidenceCostsRealAccuracy) {
  // ... but the actual judgment accuracy of the overconfident system is
  // no better (typically worse): the inflated utility is false certainty.
  const double honest = MeanFinalAccuracy(0.7, 0.7, 20);
  const double overconfident = MeanFinalAccuracy(0.99, 0.7, 20);
  EXPECT_GE(honest, overconfident - 0.02);
}

TEST(PcMismatchTest, UnderestimatingSlowsConvergence) {
  // The paper: "Underestimating the reliability of the crowd would slow
  // down the overall crowdsourcing procedure." At equal budget against a
  // 0.9 crowd, assuming 0.6 ends less certain than assuming 0.9.
  const double matched = MeanFinalUtility(0.9, 0.9, 12);
  const double underestimating = MeanFinalUtility(0.6, 0.9, 12);
  EXPECT_GT(matched, underestimating);
}

TEST(PcMismatchTest, MatchedAssumptionAccuracyGrowsWithTruePc) {
  const double low = MeanFinalAccuracy(0.6, 0.6, 16);
  const double high = MeanFinalAccuracy(0.95, 0.95, 16);
  EXPECT_GT(high, low);
}

}  // namespace
}  // namespace crowdfusion
