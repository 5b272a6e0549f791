#include "core/joint_distribution.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "common/bit_util.h"
#include "common/math_util.h"
#include "common/random.h"
#include "core/bayes.h"
#include "sparse_test_util.h"
#include "support/oracles.h"

namespace crowdfusion::core {
namespace {

using common::StatusCode;

TEST(JointDistributionTest, FromEntriesValidatesMass) {
  auto bad = JointDistribution::FromEntries(2, {{0, 0.4}, {1, 0.4}});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  auto good = JointDistribution::FromEntries(2, {{0, 0.4}, {1, 0.6}});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->num_facts(), 2);
  EXPECT_EQ(good->support_size(), 2);
}

TEST(JointDistributionTest, NormalizeFlagRescales) {
  auto joint =
      JointDistribution::FromEntries(2, {{0, 1.0}, {3, 3.0}}, true);
  ASSERT_TRUE(joint.ok());
  EXPECT_DOUBLE_EQ(joint->Probability(0), 0.25);
  EXPECT_DOUBLE_EQ(joint->Probability(3), 0.75);
  EXPECT_TRUE(joint->IsNormalized());
}

TEST(JointDistributionTest, RejectsNegativeProbability) {
  auto joint = JointDistribution::FromEntries(1, {{0, -0.5}, {1, 1.5}});
  EXPECT_EQ(joint.status().code(), StatusCode::kInvalidArgument);
}

TEST(JointDistributionTest, RejectsMaskBeyondFacts) {
  auto joint = JointDistribution::FromEntries(2, {{4, 1.0}});
  EXPECT_EQ(joint.status().code(), StatusCode::kInvalidArgument);
}

TEST(JointDistributionTest, RejectsZeroMass) {
  auto joint = JointDistribution::FromEntries(2, {{0, 0.0}});
  EXPECT_EQ(joint.status().code(), StatusCode::kInvalidArgument);
  auto empty = JointDistribution::FromEntries(2, {});
  EXPECT_FALSE(empty.ok());
}

TEST(JointDistributionTest, RejectsTooManyFacts) {
  auto joint = JointDistribution::FromEntries(65, {{0, 1.0}});
  EXPECT_EQ(joint.status().code(), StatusCode::kInvalidArgument);
  auto negative = JointDistribution::FromEntries(-1, {{0, 1.0}});
  EXPECT_FALSE(negative.ok());
}

TEST(JointDistributionTest, MergesDuplicateMasks) {
  auto joint =
      JointDistribution::FromEntries(1, {{1, 0.25}, {1, 0.25}, {0, 0.5}});
  ASSERT_TRUE(joint.ok());
  EXPECT_EQ(joint->support_size(), 2);
  EXPECT_DOUBLE_EQ(joint->Probability(1), 0.5);
}

TEST(JointDistributionTest, DropsZeroEntries) {
  auto joint = JointDistribution::FromEntries(1, {{0, 1.0}, {1, 0.0}});
  ASSERT_TRUE(joint.ok());
  EXPECT_EQ(joint->support_size(), 1);
}

TEST(JointDistributionTest, SparseMasksAllowedUpTo64Facts) {
  auto joint = JointDistribution::FromEntries(
      64, {{1ULL << 63, 0.5}, {0, 0.5}});
  ASSERT_TRUE(joint.ok());
  EXPECT_DOUBLE_EQ(joint->Marginal(63), 0.5);
}

TEST(JointDistributionTest, UniformHasMaxEntropy) {
  auto joint = Uniform(3);
  ASSERT_TRUE(joint.ok());
  EXPECT_EQ(joint->support_size(), 8);
  EXPECT_NEAR(joint->EntropyBits(), 3.0, 1e-12);
  EXPECT_NEAR(joint->Quality(), -3.0, 1e-12);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(joint->Marginal(i), 0.5, 1e-12);
}

TEST(JointDistributionTest, PointMassHasZeroEntropy) {
  auto joint = PointMass(4, 0b1010);
  ASSERT_TRUE(joint.ok());
  EXPECT_EQ(joint->EntropyBits(), 0.0);
  EXPECT_EQ(Mode(*joint), 0b1010u);
  EXPECT_DOUBLE_EQ(joint->Marginal(1), 1.0);
  EXPECT_DOUBLE_EQ(joint->Marginal(0), 0.0);
}

TEST(JointDistributionTest, IndependentMarginalsRoundTrip) {
  const std::vector<double> marginals = {0.1, 0.5, 0.9, 0.33};
  auto joint = JointDistribution::FromIndependentMarginals(marginals);
  ASSERT_TRUE(joint.ok());
  const std::vector<double> recovered = joint->Marginals();
  ASSERT_EQ(recovered.size(), marginals.size());
  for (size_t i = 0; i < marginals.size(); ++i) {
    EXPECT_NEAR(recovered[i], marginals[i], 1e-12);
  }
  // Independence: entropy is the sum of binary entropies.
  double expected = 0.0;
  for (double p : marginals) expected += common::BinaryEntropy(p);
  EXPECT_NEAR(joint->EntropyBits(), expected, 1e-9);
}

TEST(JointDistributionTest, IndependentMarginalsRejectsBadValues) {
  EXPECT_FALSE(JointDistribution::FromIndependentMarginals(
                   std::vector<double>{1.5})
                   .ok());
  EXPECT_FALSE(JointDistribution::FromIndependentMarginals(
                   std::vector<double>{-0.1})
                   .ok());
}

TEST(JointDistributionTest, DegenerateIndependentMarginals) {
  // All-certain marginals give a point mass.
  auto joint = JointDistribution::FromIndependentMarginals(
      std::vector<double>{1.0, 0.0, 1.0});
  ASSERT_TRUE(joint.ok());
  EXPECT_EQ(joint->support_size(), 1);
  EXPECT_EQ(Mode(*joint), 0b101u);
}

TEST(JointDistributionTest, FromDenseRoundTrip) {
  std::vector<double> dense = {0.1, 0.2, 0.3, 0.4};
  auto joint = JointDistribution::FromDense(2, dense);
  ASSERT_TRUE(joint.ok());
  EXPECT_EQ(ToDense(*joint), dense);
}

TEST(JointDistributionTest, FromDenseRejectsWrongSize) {
  EXPECT_FALSE(JointDistribution::FromDense(2, {0.5, 0.5}).ok());
}

TEST(JointDistributionTest, ProbabilityLookupOutsideSupportIsZero) {
  auto joint = JointDistribution::FromEntries(3, {{1, 0.5}, {6, 0.5}});
  ASSERT_TRUE(joint.ok());
  EXPECT_EQ(joint->Probability(0), 0.0);
  EXPECT_EQ(joint->Probability(7), 0.0);
  EXPECT_DOUBLE_EQ(joint->Probability(6), 0.5);
}

TEST(JointDistributionTest, MarginalizeOntoSubset) {
  // P(f0=1)=0.3 via masks {1: 0.3, 2: 0.7}.
  auto joint = JointDistribution::FromEntries(2, {{1, 0.3}, {2, 0.7}});
  ASSERT_TRUE(joint.ok());
  const std::vector<int> onto = {0};
  const std::vector<double> marginal = joint->MarginalizeOnto(onto);
  ASSERT_EQ(marginal.size(), 2u);
  EXPECT_DOUBLE_EQ(marginal[0], 0.7);
  EXPECT_DOUBLE_EQ(marginal[1], 0.3);
}

TEST(JointDistributionTest, MarginalizeOntoRespectsCoordinateOrder) {
  auto joint = JointDistribution::FromEntries(2, {{1, 1.0}});
  ASSERT_TRUE(joint.ok());
  const std::vector<int> order_a = {0, 1};
  const std::vector<int> order_b = {1, 0};
  // fact0=1, fact1=0: packed (f0,f1) -> index 0b01 = 1.
  EXPECT_DOUBLE_EQ(joint->MarginalizeOnto(order_a)[1], 1.0);
  // packed (f1,f0) -> index 0b10 = 2.
  EXPECT_DOUBLE_EQ(joint->MarginalizeOnto(order_b)[2], 1.0);
}

TEST(JointDistributionTest, MarginalizeOntoEmptyGivesTotalMass) {
  auto joint = Uniform(3);
  ASSERT_TRUE(joint.ok());
  const std::vector<int> none;
  const std::vector<double> marginal = joint->MarginalizeOnto(none);
  ASSERT_EQ(marginal.size(), 1u);
  EXPECT_NEAR(marginal[0], 1.0, 1e-12);
}

TEST(JointDistributionTest, ModeBreaksTiesTowardSmallerMask) {
  auto joint = JointDistribution::FromEntries(2, {{1, 0.5}, {2, 0.5}});
  ASSERT_TRUE(joint.ok());
  EXPECT_EQ(Mode(*joint), 1u);
}

TEST(JointDistributionTest, ToStringMentionsShape) {
  auto joint = Uniform(2);
  ASSERT_TRUE(joint.ok());
  const std::string s = ToString(*joint);
  EXPECT_NE(s.find("n=2"), std::string::npos);
  EXPECT_NE(s.find("|O|=4"), std::string::npos);
}

class MarginalConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(MarginalConsistencyTest, MarginalsMatchMarginalizeOnto) {
  // Deterministic pseudo-random dense distribution over `n` facts.
  const int n = GetParam();
  std::vector<double> dense(1ULL << n);
  for (size_t i = 0; i < dense.size(); ++i) {
    dense[i] = 1.0 + std::sin(static_cast<double>(i) * 2.3);
  }
  common::Normalize(dense);
  auto joint = JointDistribution::FromDense(n, dense);
  ASSERT_TRUE(joint.ok());
  for (int f = 0; f < n; ++f) {
    const std::vector<int> onto = {f};
    EXPECT_NEAR(joint->Marginal(f), joint->MarginalizeOnto(onto)[1], 1e-12);
    EXPECT_NEAR(joint->Marginals()[static_cast<size_t>(f)],
                joint->Marginal(f), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MarginalConsistencyTest,
                         ::testing::Values(1, 2, 3, 5, 8));

/// How far a merge's carried H(F) may sit from the literal loop, in bits.
/// Absolute on purpose: a collapsed joint's H is near 0, where any relative
/// bound is meaningless.
constexpr double kEntropyDriftBoundBits = 1e-12;

/// The stored summary against the literal loops over entries() it
/// replaces: the cell sums and the mass bit for bit, and H(F) bit for bit
/// when `exact_entropy` (construction and exact merges), else within
/// kEntropyDriftBoundBits.
void ExpectSummaryMatchesLiteralLoops(const JointDistribution& joint,
                                      bool exact_entropy) {
  const int n = joint.num_facts();
  std::vector<double> cells(2 * static_cast<size_t>(n), 0.0);
  double entropy = 0.0;
  double mass = 0.0;
  for (const auto& e : joint.entries()) {
    for (int f = 0; f < n; ++f) {
      cells[2 * static_cast<size_t>(f) + (common::GetBit(e.mask, f) ? 1 : 0)] +=
          e.prob;
    }
    entropy -= common::XLog2X(e.prob);
    mass += e.prob;
  }
  ASSERT_EQ(joint.fact_cell_sums().size(), cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    EXPECT_EQ(joint.fact_cell_sums()[c], cells[c]) << "cell " << c;
  }
  if (exact_entropy) {
    EXPECT_EQ(joint.EntropyBits(), entropy);
  } else {
    EXPECT_NEAR(joint.EntropyBits(), entropy, kEntropyDriftBoundBits);
  }
  EXPECT_EQ(joint.TotalMass(), mass);
  const std::vector<double> marginals = joint.Marginals();
  ASSERT_EQ(marginals.size(), static_cast<size_t>(n));
  for (int f = 0; f < n; ++f) {
    EXPECT_EQ(marginals[static_cast<size_t>(f)],
              cells[2 * static_cast<size_t>(f) + 1]);
    EXPECT_EQ(joint.Marginal(f), cells[2 * static_cast<size_t>(f) + 1]);
  }
}

/// Up to three distinct tasks answered with one support entry's truth, each
/// answer flipped with probability `flip` (0 keeps even a perfect crowd's
/// evidence possible).
AnswerSet PossibleAnswers(common::Rng& rng, const JointDistribution& joint,
                          double flip) {
  const uint64_t truth =
      joint.entries()[rng.NextBounded(joint.entries().size())].mask;
  const int k = std::min(joint.num_facts(),
                         1 + static_cast<int>(rng.NextBounded(3)));
  AnswerSet answers;
  answers.tasks = rng.SampleWithoutReplacement(joint.num_facts(), k);
  for (int t : answers.tasks) {
    answers.answers.push_back(common::GetBit(truth, t) !=
                              rng.NextBernoulli(flip));
  }
  return answers;
}

/// Eq. 3 by the letter: each entry weighted by its own AnswerLikelihood,
/// then normalized by FromEntries.
common::Result<JointDistribution> LiteralMerge(const JointDistribution& joint,
                                               const AnswerSet& answers,
                                               const CrowdModel& crowd) {
  const int k = static_cast<int>(answers.tasks.size());
  uint64_t answer_bits = 0;
  for (int i = 0; i < k; ++i) {
    if (answers.answers[static_cast<size_t>(i)]) answer_bits |= 1ULL << i;
  }
  std::vector<JointDistribution::Entry> weighted;
  for (const auto& e : joint.entries()) {
    const uint64_t truth_bits = common::ExtractBits(e.mask, answers.tasks);
    const double w = crowd.AnswerLikelihood(truth_bits, answer_bits, k);
    weighted.push_back({e.mask, e.prob * w});
  }
  return JointDistribution::FromEntries(joint.num_facts(), std::move(weighted),
                                        /*normalize=*/true);
}

TEST(JointDistributionTest, SummaryIsBitEqualToLiteralLoops) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    for (const int n : {1, 5, 10, 16, 17, 64}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " n=" << n);
      common::Rng rng(seed * 1000 + static_cast<uint64_t>(n));
      std::vector<JointDistribution> joints;
      if (n <= 17) {
        std::vector<double> dense(1ULL << n);
        for (double& p : dense) p = rng.NextDouble();
        auto joint = JointDistribution::FromDense(n, std::move(dense),
                                                  /*normalize=*/true);
        ASSERT_TRUE(joint.ok());
        joints.push_back(std::move(joint).value());
      }
      const int support = static_cast<int>(
          std::min<uint64_t>(n >= 63 ? 300 : (1ULL << n) - 1, 300));
      joints.push_back(RandomSparseJoint(n, std::max(1, support), rng));
      for (JointDistribution& joint : joints) {
        ExpectSummaryMatchesLiteralLoops(joint, /*exact_entropy=*/true);
        // Joints small enough to check cheaply run past the first exact
        // merge; the 2^16- and 2^17-entry ones stop after three.
        const int merges = joint.support_size() <= 1024
                               ? JointDistribution::kMergesPerExactLogs + 1
                               : 3;
        for (int merge = 1; merge <= merges; ++merge) {
          SCOPED_TRACE(testing::Message() << "merge=" << merge);
          const bool perfect = merge == 3;
          const auto crowd = CrowdModel::Create(perfect ? 1.0 : 0.8);
          ASSERT_TRUE(crowd.ok());
          const AnswerSet answers =
              PossibleAnswers(rng, joint, perfect ? 0.0 : 0.2);
          const auto expected = LiteralMerge(joint, answers, *crowd);
          ASSERT_TRUE(expected.ok());
          ASSERT_TRUE(MergeAnswersInPlace(joint, answers, *crowd).ok());
          EXPECT_EQ(joint, *expected);
          ExpectSummaryMatchesLiteralLoops(
              joint, merge % JointDistribution::kMergesPerExactLogs == 0);
        }
      }
    }
  }
}

/// Pc and the tasks per merge.
class CarriedEntropyDriftTest
    : public testing::TestWithParam<std::tuple<double, int>> {};

/// Merges carry log2 p between exact merges. After every merge of a long
/// chain, over 64 seeds of a dense n = 10 and a sparse n = 64 joint, the
/// carried H(F) stays within kEntropyDriftBoundBits of the literal loop,
/// and every exact merge of the chain matches it bit for bit.
TEST_P(CarriedEntropyDriftTest, StaysWithinBoundOverChainedMerges) {
  const auto [pc, k] = GetParam();
  const auto crowd = CrowdModel::Create(pc);
  ASSERT_TRUE(crowd.ok());
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    common::Rng rng(seed);
    std::vector<double> dense(1ULL << 10);
    for (double& p : dense) p = rng.NextDouble();
    auto dense_joint = JointDistribution::FromDense(10, std::move(dense),
                                                    /*normalize=*/true);
    ASSERT_TRUE(dense_joint.ok());
    for (JointDistribution joint :
         {*dense_joint, RandomSparseJoint(64, 300, rng)}) {
      SCOPED_TRACE(testing::Message()
                   << "seed=" << seed << " n=" << joint.num_facts());
      // The crowd judges one fixed output, each answer wrong w.p. 1 - Pc.
      const uint64_t truth =
          joint.entries()[rng.NextBounded(joint.entries().size())].mask;
      for (int merge = 1; merge <= 1000; ++merge) {
        AnswerSet answers;
        answers.tasks = rng.SampleWithoutReplacement(joint.num_facts(), k);
        for (int t : answers.tasks) {
          answers.answers.push_back(common::GetBit(truth, t) !=
                                    rng.NextBernoulli(1.0 - pc));
        }
        ASSERT_TRUE(MergeAnswersInPlace(joint, answers, *crowd).ok());
        double literal = 0.0;
        for (const auto& e : joint.entries()) {
          literal -= common::XLog2X(e.prob);
        }
        if (merge % JointDistribution::kMergesPerExactLogs == 0) {
          ASSERT_EQ(joint.EntropyBits(), literal) << "exact merge " << merge;
        } else {
          ASSERT_LE(std::fabs(joint.EntropyBits() - literal),
                    kEntropyDriftBoundBits)
              << "merge " << merge << ", literal H " << literal;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PcAndTasks, CarriedEntropyDriftTest,
                         testing::Combine(testing::Values(0.6, 0.8, 0.95),
                                          testing::Values(1, 2, 3)));

TEST(JointDistributionTest, IndependentMarginalsMatchPerMaskProductLoop) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    common::Rng rng(seed);
    for (int n = 0; n <= 12; ++n) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " n=" << n);
      std::vector<double> marginals(static_cast<size_t>(n));
      for (double& m : marginals) {
        const uint64_t kind = rng.NextBounded(6);
        m = kind == 0 ? 0.0 : kind == 1 ? 1.0 : rng.NextDouble();
      }
      std::vector<JointDistribution::Entry> entries;
      for (uint64_t mask = 0; mask < (1ULL << n); ++mask) {
        double p = 1.0;
        for (int i = 0; i < n; ++i) {
          p *= common::GetBit(mask, i)
                   ? marginals[static_cast<size_t>(i)]
                   : 1.0 - marginals[static_cast<size_t>(i)];
        }
        if (p > 0.0) entries.push_back({mask, p});
      }
      auto expected = JointDistribution::FromEntries(n, std::move(entries),
                                                     /*normalize=*/true);
      auto built = JointDistribution::FromIndependentMarginals(marginals);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(built.ok());
      EXPECT_EQ(*built, *expected);
    }
  }
}

TEST(JointDistributionTest, FromEntriesIgnoresInputOrder) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    common::Rng rng(seed);
    const JointDistribution reference = RandomSparseJoint(40, 500, rng);
    std::vector<JointDistribution::Entry> sorted = reference.entries();
    std::vector<JointDistribution::Entry> shuffled = sorted;
    rng.Shuffle(shuffled);
    auto from_sorted = JointDistribution::FromEntries(40, std::move(sorted));
    auto from_shuffled =
        JointDistribution::FromEntries(40, std::move(shuffled));
    ASSERT_TRUE(from_sorted.ok());
    ASSERT_TRUE(from_shuffled.ok());
    EXPECT_EQ(*from_sorted, reference) << "seed=" << seed;
    EXPECT_EQ(*from_shuffled, reference) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace crowdfusion::core
