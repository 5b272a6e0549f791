#include "core/running_example.h"

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "core/answer_model.h"
#include "core/bayes.h"
#include "core/greedy_selector.h"
#include "core/opt_selector.h"
#include "core/utility.h"
#include "support/status_printing.h"

namespace crowdfusion::core {
namespace {

// The paper rounds to 3 decimals; a value printed as x is within 5e-4 of
// the true one. We allow 6e-4.
constexpr double kPaperTolerance = 6e-4;

TEST(RunningExampleTest, TableI_Marginals) {
  const JointDistribution joint = RunningExample::Joint();
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(joint.Marginal(i), RunningExample::kMarginals[i], 1e-12)
        << "fact f" << (i + 1);
  }
}

TEST(RunningExampleTest, TableII_IsAProperDistribution) {
  const JointDistribution joint = RunningExample::Joint();
  EXPECT_EQ(joint.num_facts(), 4);
  EXPECT_EQ(joint.support_size(), 16);
  EXPECT_TRUE(joint.IsNormalized(1e-12));
  // Spot-check rows: o1 = FFFF -> mask 0, o16 = TTTT -> mask 15,
  // o7 = F T T F -> f2,f3 true -> mask 0b0110.
  EXPECT_DOUBLE_EQ(joint.Probability(0b0000), 0.03);
  EXPECT_DOUBLE_EQ(joint.Probability(0b1111), 0.11);
  EXPECT_DOUBLE_EQ(joint.Probability(0b0110), 0.11);
  // o9 = T F F F -> mask 0b0001.
  EXPECT_DOUBLE_EQ(joint.Probability(0b0001), 0.04);
}

TEST(RunningExampleTest, TableIII_TaskEntropies) {
  // NOTE on paper fidelity: Table III's fact labels are internally
  // inconsistent with Table II. Computing the entropies from Table II
  // reproduces Table III's numbers exactly, but only as a multiset — the
  // pair labels come out reversed (paper f1 <-> f4, f2 <-> f3). Tables I,
  // II, IV and the Section III-A/D walkthroughs all verify under the
  // direct Table II reading (see the other tests in this file), so we keep
  // that reading and check Table III under the label reversal: paper f_i
  // maps to our fact id (4 - i).
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();
  const struct {
    int a, b;              // our fact ids for the paper's pair
    double fact_entropy;   // H({f_i | f_i in T})
    double task_entropy;   // H(T) with Pc = 0.8
  } kRows[] = {
      {3, 2, 1.981, 1.993},  // paper {f1,f2}
      {3, 1, 1.949, 1.982},  // paper {f1,f3}
      {3, 0, 1.976, 1.997},  // paper {f1,f4}
      {2, 1, 1.929, 1.975},  // paper {f2,f3}
      {2, 0, 1.977, 1.993},  // paper {f2,f4}
      {1, 0, 1.948, 1.982},  // paper {f3,f4}
  };
  for (const auto& row : kRows) {
    const std::vector<int> tasks = {row.a, row.b};
    const double fact_h =
        common::Entropy(joint.MarginalizeOnto(tasks));
    const double task_h = TaskEntropyBits(joint, tasks, crowd);
    EXPECT_NEAR(fact_h, row.fact_entropy, kPaperTolerance)
        << "facts {" << row.a << "," << row.b << "}";
    EXPECT_NEAR(task_h, row.task_entropy, kPaperTolerance)
        << "tasks {" << row.a << "," << row.b << "}";
  }
}

TEST(RunningExampleTest, TableIV_AnswerJointDistribution) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();
  const std::vector<int> all_facts = {0, 1, 2, 3};
  const std::vector<double> table = AnswerDistribution(joint, all_facts, crowd);
  // Rows a1..a16 in the paper's (f1 f2 f3 f4) column order.
  const double kExpected[16] = {0.049, 0.050, 0.063, 0.055, 0.071, 0.049,
                                0.087, 0.077, 0.047, 0.051, 0.052, 0.056,
                                0.065, 0.071, 0.073, 0.085};
  for (int row = 0; row < 16; ++row) {
    const bool f1 = (row >> 3) & 1;
    const bool f2 = (row >> 2) & 1;
    const bool f3 = (row >> 1) & 1;
    const bool f4 = row & 1;
    uint64_t mask = 0;
    if (f1) mask |= 1;
    if (f2) mask |= 2;
    if (f3) mask |= 4;
    if (f4) mask |= 8;
    EXPECT_NEAR(table[mask], kExpected[row], kPaperTolerance)
        << "a" << (row + 1);
  }
}

TEST(RunningExampleTest, SectionIIIA_WorkedBayesianUpdate) {
  // Ask {f1}, receive "yes" with Pc = 0.8: P(e) = 0.5,
  // P(o1|e) = 0.03 * 0.2 / 0.5 = 0.012, P(o9|e) = 0.04 * 0.8 / 0.5 = 0.064.
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();
  AnswerSet answers;
  answers.tasks = {0};
  answers.answers = {true};
  auto p_e = AnswerSetProbability(joint, answers, crowd);
  ASSERT_TRUE(p_e.ok());
  EXPECT_NEAR(p_e.value(), 0.5, 1e-12);

  auto posterior = PosteriorGivenAnswers(joint, answers, crowd);
  ASSERT_TRUE(posterior.ok());
  EXPECT_NEAR(posterior->Probability(0b0000), 0.012, 1e-12);  // o1
  EXPECT_NEAR(posterior->Probability(0b0001), 0.064, 1e-12);  // o9
  EXPECT_TRUE(posterior->IsNormalized(1e-9));
}

TEST(RunningExampleTest, SectionIIID_GreedySelectsF1ThenF4) {
  // The paper's walkthrough: the greedy picks f1 first (H = 1), then f4,
  // reaching H({f1,f4}) = 1.997.
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();
  for (const bool preprocessing : {false, true}) {
    GreedySelector::Options options;
    options.use_preprocessing = preprocessing;
    GreedySelector selector(options);
    SelectionRequest request;
    request.joint = &joint;
    request.crowd = &crowd;
    request.k = 2;
    auto selection = selector.Select(request);
    ASSERT_TRUE(selection.ok()) << selection.status();
    EXPECT_EQ(selection->tasks, (std::vector<int>{0, 3}));
    EXPECT_NEAR(selection->entropy_bits, 1.997, kPaperTolerance);
  }
}

TEST(RunningExampleTest, OptAlsoPicksF1F4) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();
  OptSelector selector;
  SelectionRequest request;
  request.joint = &joint;
  request.crowd = &crowd;
  request.k = 2;
  auto selection = selector.Select(request);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->tasks, (std::vector<int>{0, 3}));
  EXPECT_NEAR(selection->entropy_bits, 1.997, kPaperTolerance);
}

TEST(RunningExampleTest, SectionIIIB_TrustingCrowdChangesChoice) {
  // With Pc = 1 the objective degenerates to the fact entropy and the best
  // pair becomes the paper's {f1, f2} = Table III's 1.981 row, which under
  // the Table II reading is our facts {2, 3} (see the label-reversal note
  // in TableIII_TaskEntropies). The essential claim — that the best pair
  // *changes* when the crowd is trusted — holds either way.
  const JointDistribution joint = RunningExample::Joint();
  auto perfect = CrowdModel::Create(1.0);
  ASSERT_TRUE(perfect.ok());
  OptSelector selector;
  SelectionRequest request;
  request.joint = &joint;
  request.crowd = &perfect.value();
  request.k = 2;
  auto selection = selector.Select(request);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->tasks, (std::vector<int>{2, 3}));
  EXPECT_NEAR(selection->entropy_bits, 1.981, kPaperTolerance);
  // Differs from the noisy-crowd choice {0, 3}.
}

TEST(RunningExampleTest, FactsMatchTableI) {
  const FactSet facts = RunningExample::Facts();
  ASSERT_EQ(facts.size(), 4);
  EXPECT_EQ(facts.at(0).subject, "Hong Kong");
  EXPECT_EQ(facts.at(0).object, "Asia");
  EXPECT_EQ(facts.at(3).object, "Europe");
}

}  // namespace
}  // namespace crowdfusion::core
