#include "core/bayes.h"

#include <gtest/gtest.h>

#include "common/bit_util.h"
#include "common/math_util.h"
#include "common/random.h"
#include "core/running_example.h"
#include "support/oracles.h"

namespace crowdfusion::core {
namespace {

using common::StatusCode;

CrowdModel MakeCrowd(double pc) {
  auto crowd = CrowdModel::Create(pc);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

TEST(BayesTest, PosteriorNormalizes) {
  const JointDistribution prior = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  AnswerSet answers{{0, 2}, {true, false}};
  auto posterior = PosteriorGivenAnswers(prior, answers, crowd);
  ASSERT_TRUE(posterior.ok());
  EXPECT_TRUE(posterior->IsNormalized(1e-9));
  EXPECT_EQ(posterior->num_facts(), prior.num_facts());
}

TEST(BayesTest, ConfirmingAnswerRaisesMarginal) {
  const JointDistribution prior = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  AnswerSet yes{{1}, {true}};
  auto posterior = PosteriorGivenAnswers(prior, yes, crowd);
  ASSERT_TRUE(posterior.ok());
  EXPECT_GT(posterior->Marginal(1), prior.Marginal(1));
  AnswerSet no{{1}, {false}};
  auto denial = PosteriorGivenAnswers(prior, no, crowd);
  ASSERT_TRUE(denial.ok());
  EXPECT_LT(denial->Marginal(1), prior.Marginal(1));
}

TEST(BayesTest, UselessCrowdChangesNothing) {
  const JointDistribution prior = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.5);
  AnswerSet answers{{0, 1, 2, 3}, {true, false, true, false}};
  auto posterior = PosteriorGivenAnswers(prior, answers, crowd);
  ASSERT_TRUE(posterior.ok());
  for (int f = 0; f < 4; ++f) {
    EXPECT_NEAR(posterior->Marginal(f), prior.Marginal(f), 1e-12);
  }
}

TEST(BayesTest, PerfectCrowdCollapsesAskedFact) {
  const JointDistribution prior = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(1.0);
  AnswerSet answers{{0}, {true}};
  auto posterior = PosteriorGivenAnswers(prior, answers, crowd);
  ASSERT_TRUE(posterior.ok());
  EXPECT_NEAR(posterior->Marginal(0), 1.0, 1e-12);
}

TEST(BayesTest, ImpossibleEvidenceRejected) {
  // Prior says fact 0 is certainly true; a perfect crowd answering "false"
  // is impossible evidence.
  auto prior = JointDistribution::FromEntries(1, {{1, 1.0}});
  ASSERT_TRUE(prior.ok());
  const CrowdModel crowd = MakeCrowd(1.0);
  AnswerSet answers{{0}, {false}};
  auto posterior = PosteriorGivenAnswers(*prior, answers, crowd);
  EXPECT_EQ(posterior.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BayesTest, NoisyCrowdSurvivesContradiction) {
  auto prior = JointDistribution::FromEntries(1, {{1, 1.0}});
  ASSERT_TRUE(prior.ok());
  const CrowdModel crowd = MakeCrowd(0.8);
  AnswerSet answers{{0}, {false}};
  auto posterior = PosteriorGivenAnswers(*prior, answers, crowd);
  ASSERT_TRUE(posterior.ok());
  EXPECT_NEAR(posterior->Marginal(0), 1.0, 1e-12);
}

TEST(BayesTest, ValidationCatchesMalformedAnswerSets) {
  const JointDistribution prior = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  // Size mismatch.
  EXPECT_EQ(PosteriorGivenAnswers(prior, {{0, 1}, {true}}, crowd)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Out-of-range fact.
  EXPECT_EQ(PosteriorGivenAnswers(prior, {{9}, {true}}, crowd)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  // Duplicate task in one round.
  EXPECT_EQ(
      PosteriorGivenAnswers(prior, {{1, 1}, {true, true}}, crowd)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(BayesTest, SequentialUpdatesCompose) {
  const JointDistribution prior = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  const std::vector<AnswerSet> rounds = {{{0}, {true}}, {{3}, {false}}};
  auto stepwise = PosteriorGivenAnswers(prior, rounds[0], crowd);
  ASSERT_TRUE(stepwise.ok());
  stepwise = PosteriorGivenAnswers(*stepwise, rounds[1], crowd);
  ASSERT_TRUE(stepwise.ok());
  auto batched = PosteriorGivenAnswerSets(prior, rounds, crowd);
  ASSERT_TRUE(batched.ok());
  for (const auto& entry : stepwise->entries()) {
    EXPECT_NEAR(entry.prob, batched->Probability(entry.mask), 1e-12);
  }
}

TEST(BayesTest, AnswerOrderWithinRoundIrrelevant) {
  const JointDistribution prior = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  auto a = PosteriorGivenAnswers(prior, {{0, 2}, {true, false}}, crowd);
  auto b = PosteriorGivenAnswers(prior, {{2, 0}, {false, true}}, crowd);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (const auto& entry : a->entries()) {
    EXPECT_NEAR(entry.prob, b->Probability(entry.mask), 1e-12);
  }
}

TEST(BayesTest, RepeatedConsistentAnswersConcentrateBelief) {
  const JointDistribution prior = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  JointDistribution current = prior;
  double previous = current.Marginal(0);
  for (int round = 0; round < 10; ++round) {
    auto posterior = PosteriorGivenAnswers(current, {{0}, {true}}, crowd);
    ASSERT_TRUE(posterior.ok());
    current = std::move(posterior).value();
    EXPECT_GT(current.Marginal(0), previous);
    previous = current.Marginal(0);
  }
  EXPECT_GT(current.Marginal(0), 0.99);
}

/// Literal Equation 3: each entry's likelihood from AnswerLikelihood on its
/// extracted truth bits, then FromEntries' sort, merge and renormalization.
struct ReferenceMerge {
  double mass = 0.0;
  common::Result<JointDistribution> posterior;
};

ReferenceMerge ReferencePosterior(const JointDistribution& prior,
                                  const AnswerSet& answer_set,
                                  const CrowdModel& crowd) {
  const int k = static_cast<int>(answer_set.tasks.size());
  uint64_t answer_bits = 0;
  for (int i = 0; i < k; ++i) {
    if (answer_set.answers[static_cast<size_t>(i)]) answer_bits |= 1ULL << i;
  }
  std::vector<JointDistribution::Entry> weighted;
  double mass = 0.0;
  for (const auto& entry : prior.entries()) {
    const uint64_t truth_bits =
        common::ExtractBits(entry.mask, answer_set.tasks);
    const double w =
        entry.prob * crowd.AnswerLikelihood(truth_bits, answer_bits, k);
    mass += w;
    weighted.push_back({entry.mask, w});
  }
  auto posterior = JointDistribution::FromEntries(
      prior.num_facts(), std::move(weighted), /*normalize=*/true);
  return {mass, std::move(posterior)};
}

JointDistribution RandomDenseJoint(common::Rng& rng, int n) {
  std::vector<double> p(1ULL << n);
  for (double& x : p) x = rng.NextDouble();
  auto j = JointDistribution::FromDense(n, std::move(p), /*normalize=*/true);
  EXPECT_TRUE(j.ok());
  return std::move(j).value();
}

JointDistribution RandomSparseJoint(common::Rng& rng, int support) {
  std::vector<JointDistribution::Entry> e;
  for (int i = 0; i < support; ++i) {
    e.push_back({rng.NextUint64(), rng.NextUniform(0.01, 1.0)});
  }
  auto j = JointDistribution::FromEntries(64, std::move(e), /*normalize=*/true);
  EXPECT_TRUE(j.ok());
  return std::move(j).value();
}

/// k distinct tasks; the answers are one support entry's truth (so the
/// evidence is possible even for a perfect crowd) with each bit flipped with
/// probability `flip`.
AnswerSet RandomAnswerSet(common::Rng& rng, const JointDistribution& joint,
                          int k, double flip) {
  const auto& entries = joint.entries();
  const uint64_t truth = entries[rng.NextBounded(entries.size())].mask;
  const auto n = static_cast<uint64_t>(joint.num_facts());
  AnswerSet answer_set;
  uint64_t asked = 0;
  while (static_cast<int>(answer_set.tasks.size()) < k) {
    const int fact = static_cast<int>(rng.NextBounded(n));
    if (common::GetBit(asked, fact)) continue;
    asked |= 1ULL << fact;
    answer_set.tasks.push_back(fact);
    const bool flipped = rng.NextBernoulli(flip);
    answer_set.answers.push_back(common::GetBit(truth, fact) != flipped);
  }
  return answer_set;
}

void ExpectMatchesReference(const JointDistribution& prior,
                            const AnswerSet& answer_set,
                            const CrowdModel& crowd) {
  const ReferenceMerge reference = ReferencePosterior(prior, answer_set, crowd);
  auto mass = AnswerSetProbability(prior, answer_set, crowd);
  ASSERT_TRUE(mass.ok());
  EXPECT_EQ(*mass, reference.mass);
  auto posterior = PosteriorGivenAnswers(prior, answer_set, crowd);
  ASSERT_EQ(posterior.ok(), reference.posterior.ok());
  if (!posterior.ok()) return;
  EXPECT_EQ(*posterior, *reference.posterior);
  const auto& entries = posterior->entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_GT(entries[i].prob, 0.0);
    if (i > 0) {
      EXPECT_LT(entries[i - 1].mask, entries[i].mask);
    }
  }
}

TEST(BayesTest, MergeIsBitIdenticalToLiteralEquation3) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    common::Rng rng(seed);
    const JointDistribution dense = RandomDenseJoint(rng, 10);
    const JointDistribution sparse = RandomSparseJoint(rng, 700);
    for (const JointDistribution* prior : {&dense, &sparse}) {
      SCOPED_TRACE(prior->num_facts());
      for (int k : {1, 2, 5, 8}) {
        SCOPED_TRACE(k);
        for (double pc : {0.5, 0.8, 1.0}) {
          SCOPED_TRACE(pc);
          const double flip = pc < 1.0 ? 0.3 : 0.0;
          const AnswerSet answer_set = RandomAnswerSet(rng, *prior, k, flip);
          ExpectMatchesReference(*prior, answer_set, MakeCrowd(pc));
        }
      }
    }
  }
}

TEST(BayesTest, PerfectCrowdDropsContradictedOutputsLikeLiteralEquation3) {
  common::Rng rng(77);
  const CrowdModel crowd = MakeCrowd(1.0);
  const JointDistribution dense = RandomDenseJoint(rng, 10);
  const JointDistribution sparse = RandomSparseJoint(rng, 700);
  for (const JointDistribution* prior : {&dense, &sparse}) {
    const AnswerSet answer_set = RandomAnswerSet(rng, *prior, 5, 0.0);
    ExpectMatchesReference(*prior, answer_set, crowd);
    auto posterior = PosteriorGivenAnswers(*prior, answer_set, crowd);
    ASSERT_TRUE(posterior.ok());
    EXPECT_LT(posterior->support_size(), prior->support_size());
  }
}

TEST(BayesTest, AllSixtyFourFactsAskedAtOnce) {
  common::Rng rng(64);
  const JointDistribution prior = RandomSparseJoint(rng, 300);
  for (double pc : {0.5, 0.8, 1.0}) {
    SCOPED_TRACE(pc);
    const double flip = pc < 1.0 ? 0.1 : 0.0;
    const AnswerSet answer_set = RandomAnswerSet(rng, prior, 64, flip);
    ExpectMatchesReference(prior, answer_set, MakeCrowd(pc));
  }
  AnswerSet twice = RandomAnswerSet(rng, prior, 64, 0.0);
  twice.tasks[0] = 63;
  twice.tasks[1] = 63;
  auto rejected = PosteriorGivenAnswers(prior, twice, MakeCrowd(0.8));
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(BayesTest, MergeInPlaceIsBitIdenticalToPosteriorGivenAnswers) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    common::Rng rng(seed);
    const JointDistribution dense = RandomDenseJoint(rng, 10);
    const JointDistribution sparse = RandomSparseJoint(rng, 700);
    for (const JointDistribution* prior : {&dense, &sparse}) {
      // A chain of rounds: each merges into the joint the last one left.
      JointDistribution merged = *prior;
      for (int k : {1, 3, 8, 1}) {
        for (double pc : {0.5, 0.8, 1.0}) {
          SCOPED_TRACE(testing::Message() << "k=" << k << " pc=" << pc);
          const CrowdModel crowd = MakeCrowd(pc);
          const AnswerSet answer_set =
              RandomAnswerSet(rng, merged, k, pc < 1.0 ? 0.3 : 0.0);
          const ReferenceMerge reference =
              ReferencePosterior(merged, answer_set, crowd);
          auto posterior = PosteriorGivenAnswers(merged, answer_set, crowd);
          ASSERT_TRUE(posterior.ok());
          ASSERT_TRUE(MergeAnswersInPlace(merged, answer_set, crowd).ok());
          EXPECT_EQ(merged, *posterior);
          EXPECT_EQ(merged, *reference.posterior);
        }
      }
    }
  }
}

TEST(BayesTest, FailedMergeLeavesTheJointUntouched) {
  common::Rng rng(5);
  // Fact 0 is certainly true; a perfect crowd answering "false" is
  // impossible evidence.
  std::vector<JointDistribution::Entry> entries;
  for (uint64_t mask = 1; mask < 64; mask += 2) {
    entries.push_back({mask, rng.NextUniform(0.1, 1.0)});
  }
  auto built = JointDistribution::FromEntries(6, std::move(entries),
                                              /*normalize=*/true);
  ASSERT_TRUE(built.ok());
  const JointDistribution before = *built;
  JointDistribution joint = before;
  const AnswerSet impossible{{3, 0}, {true, false}};
  // operator== compares the entries only, so the summary is checked too.
  const auto expect_untouched = [&] {
    EXPECT_EQ(joint, before);
    EXPECT_EQ(joint.EntropyBits(), before.EntropyBits());
    EXPECT_EQ(joint.TotalMass(), before.TotalMass());
    EXPECT_EQ(joint.fact_cell_sums(), before.fact_cell_sums());
  };
  EXPECT_EQ(MergeAnswersInPlace(joint, impossible, MakeCrowd(1.0)).code(),
            StatusCode::kFailedPrecondition);
  expect_untouched();
  const AnswerSet malformed{{2, 2}, {true, true}};
  EXPECT_EQ(MergeAnswersInPlace(joint, malformed, MakeCrowd(0.8)).code(),
            StatusCode::kInvalidArgument);
  expect_untouched();
}

class ExpectedEntropyTest : public ::testing::TestWithParam<double> {};

TEST_P(ExpectedEntropyTest, AnswersReduceEntropyInExpectation) {
  // Information never hurts: E_ans[H(posterior)] <= H(prior). Verified by
  // enumerating all answer sets of a fixed task set.
  const double pc = GetParam();
  const JointDistribution prior = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(pc);
  const std::vector<int> tasks = {0, 2};
  double expected_posterior_entropy = 0.0;
  for (int bits = 0; bits < 4; ++bits) {
    AnswerSet answers;
    answers.tasks = tasks;
    answers.answers = {(bits & 1) != 0, (bits & 2) != 0};
    auto p = AnswerSetProbability(prior, answers, crowd);
    ASSERT_TRUE(p.ok());
    if (p.value() <= 0.0) continue;
    auto posterior = PosteriorGivenAnswers(prior, answers, crowd);
    ASSERT_TRUE(posterior.ok());
    expected_posterior_entropy += p.value() * posterior->EntropyBits();
  }
  EXPECT_LE(expected_posterior_entropy, prior.EntropyBits() + 1e-9);
  if (pc > 0.5) {
    EXPECT_LT(expected_posterior_entropy, prior.EntropyBits());
  }
}

INSTANTIATE_TEST_SUITE_P(PcSweep, ExpectedEntropyTest,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9, 1.0));

}  // namespace
}  // namespace crowdfusion::core
