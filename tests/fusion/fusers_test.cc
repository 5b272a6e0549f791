#include <gtest/gtest.h>

#include "common/random.h"
#include "fusion/accu.h"
#include "fusion/crh.h"
#include "fusion/majority_vote.h"
#include "fusion/truthfinder.h"
#include "support/status_printing.h"

namespace crowdfusion::fusion {
namespace {

/// Builds a database where entity truth is value 0, claimed by `good`
/// reliable sources; value 1 is claimed by `bad` unreliable sources. The
/// reliable sources claim the truth on every entity; the unreliable ones
/// always claim the false value.
ClaimDatabase SkewedDatabase(int entities, int good, int bad) {
  ClaimDatabase db;
  for (int s = 0; s < good + bad; ++s) {
    db.AddSource("s" + std::to_string(s));
  }
  for (int e = 0; e < entities; ++e) {
    db.AddEntity("e" + std::to_string(e));
    const int truth = db.AddValue(e, "truth-" + std::to_string(e)).value();
    const int lie = db.AddValue(e, "lie-" + std::to_string(e)).value();
    for (int s = 0; s < good; ++s) EXPECT_TRUE(db.AddClaim(s, truth).ok());
    for (int s = good; s < good + bad; ++s) {
      EXPECT_TRUE(db.AddClaim(s, lie).ok());
    }
  }
  return db;
}

/// A harder instance where source weighting matters. Sources 0..4 are
/// careful and always claim the truth; sources 5..7 are copiers echoing a
/// shared lie on every entity. On 15 "strong" entities all five careful
/// sources are present, so majority voting is right (5 vs 3); on 5 "weak"
/// entities only careful sources 0 and 1 cover the book, so majority
/// voting is fooled (2 vs 3). A weighted method that learns the copiers
/// are unreliable from the strong entities fixes the weak ones.
constexpr int kNumCareful = 5;
constexpr int kNumCopiers = 3;
constexpr int kNumStrong = 15;
constexpr int kNumWeak = 5;

ClaimDatabase CopyingDatabase() {
  ClaimDatabase db;
  for (int s = 0; s < kNumCareful + kNumCopiers; ++s) {
    db.AddSource("s" + std::to_string(s));
  }
  for (int e = 0; e < kNumStrong + kNumWeak; ++e) {
    db.AddEntity("e" + std::to_string(e));
    const int truth = db.AddValue(e, "truth").value();
    const int lie = db.AddValue(e, "lie").value();
    const bool strong = e < kNumStrong;
    const int careful_here = strong ? kNumCareful : 2;
    for (int s = 0; s < careful_here; ++s) {
      EXPECT_TRUE(db.AddClaim(s, truth).ok());
    }
    for (int s = kNumCareful; s < kNumCareful + kNumCopiers; ++s) {
      EXPECT_TRUE(db.AddClaim(s, lie).ok());
    }
  }
  return db;
}

template <typename FuserT>
FusionResult FuseOrDie(const ClaimDatabase& db) {
  FuserT fuser;
  auto result = fuser.Fuse(db);
  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(ValidateFusionResult(db, *result).ok());
  return std::move(result).value();
}

TEST(MajorityVoteTest, SharesReflectVotes) {
  const ClaimDatabase db = SkewedDatabase(4, 3, 1);
  const FusionResult result = FuseOrDie<MajorityVoteFuser>(db);
  for (int e = 0; e < db.num_entities(); ++e) {
    const auto& values = db.entity_values(e);
    EXPECT_GT(result.value_probability[static_cast<size_t>(values[0])],
              result.value_probability[static_cast<size_t>(values[1])]);
  }
}

TEST(MajorityVoteTest, SmoothingKeepsProbabilitiesInterior) {
  const ClaimDatabase db = SkewedDatabase(2, 4, 0);
  const FusionResult result = FuseOrDie<MajorityVoteFuser>(db);
  for (double p : result.value_probability) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST(CrhTest, DownWeightsUnreliableSources) {
  const ClaimDatabase db = CopyingDatabase();
  const FusionResult result = FuseOrDie<CrhFuser>(db);
  // Full-coverage careful sources should outweigh every copier.
  for (int careful = 0; careful < kNumCareful; ++careful) {
    for (int copier = kNumCareful; copier < kNumCareful + kNumCopiers;
         ++copier) {
      EXPECT_GT(result.source_weight[static_cast<size_t>(careful)],
                result.source_weight[static_cast<size_t>(copier)])
          << "careful " << careful << " vs copier " << copier;
    }
  }
}

TEST(CrhTest, BeatsMajorityVoteOnCopiedLies) {
  const ClaimDatabase db = CopyingDatabase();
  const FusionResult crh = FuseOrDie<CrhFuser>(db);
  const FusionResult mv = FuseOrDie<MajorityVoteFuser>(db);
  int crh_correct = 0;
  int mv_correct = 0;
  for (int e = 0; e < db.num_entities(); ++e) {
    const auto& values = db.entity_values(e);  // [truth, lie]
    if (crh.value_probability[static_cast<size_t>(values[0])] >
        crh.value_probability[static_cast<size_t>(values[1])]) {
      ++crh_correct;
    }
    if (mv.value_probability[static_cast<size_t>(values[0])] >
        mv.value_probability[static_cast<size_t>(values[1])]) {
      ++mv_correct;
    }
  }
  EXPECT_EQ(crh_correct, db.num_entities());
  // Majority voting is fooled on the weak entities.
  EXPECT_EQ(mv_correct, kNumStrong);
}

TEST(CrhTest, ConvergesWithinIterationCap) {
  const ClaimDatabase db = CopyingDatabase();
  CrhFuser fuser;
  auto result = fuser.Fuse(db);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->iterations, CrhFuser::Options{}.max_iterations);
  EXPECT_GE(result->iterations, 1);
}

TEST(TruthFinderTest, TrustsAccurateSources) {
  const ClaimDatabase db = CopyingDatabase();
  const FusionResult result = FuseOrDie<TruthFinderFuser>(db);
  for (int careful = 0; careful < kNumCareful; ++careful) {
    for (int copier = kNumCareful; copier < kNumCareful + kNumCopiers;
         ++copier) {
      EXPECT_GT(result.source_weight[static_cast<size_t>(careful)],
                result.source_weight[static_cast<size_t>(copier)])
          << "careful " << careful << " vs copier " << copier;
    }
  }
}

TEST(TruthFinderTest, ImplicationBoostsSimilarValues) {
  // Two values that imply each other strongly should end closer together
  // than independent ones.
  ClaimDatabase db;
  db.AddSource("s0");
  db.AddSource("s1");
  db.AddSource("s2");
  db.AddEntity("e");
  const int a = db.AddValue(0, "A").value();
  const int b = db.AddValue(0, "B").value();
  ASSERT_TRUE(db.AddClaim(0, a).ok());
  ASSERT_TRUE(db.AddClaim(1, a).ok());
  ASSERT_TRUE(db.AddClaim(2, b).ok());

  TruthFinderFuser plain;
  auto without = plain.Fuse(db);
  ASSERT_TRUE(without.ok());

  TruthFinderFuser::Options options;
  options.implication = [](int, int) { return 1.0; };  // mutual support
  TruthFinderFuser with(options);
  auto boosted = with.Fuse(db);
  ASSERT_TRUE(boosted.ok());

  const double gap_without =
      without->value_probability[static_cast<size_t>(a)] -
      without->value_probability[static_cast<size_t>(b)];
  const double gap_with =
      boosted->value_probability[static_cast<size_t>(a)] -
      boosted->value_probability[static_cast<size_t>(b)];
  EXPECT_LT(gap_with, gap_without);
}

TEST(AccuTest, PosteriorFavorsMajorityOfAccurateSources) {
  const ClaimDatabase db = SkewedDatabase(6, 4, 2);
  const FusionResult result = FuseOrDie<AccuFuser>(db);
  for (int e = 0; e < db.num_entities(); ++e) {
    const auto& values = db.entity_values(e);
    EXPECT_GT(result.value_probability[static_cast<size_t>(values[0])],
              result.value_probability[static_cast<size_t>(values[1])]);
  }
}

TEST(AccuTest, PerEntityPosteriorsClampedToFloor) {
  const ClaimDatabase db = SkewedDatabase(3, 5, 0);
  const FusionResult result = FuseOrDie<AccuFuser>(db);
  for (double p : result.value_probability) {
    EXPECT_GE(p, 0.02 - 1e-12);
    EXPECT_LE(p, 0.98 + 1e-12);
  }
}

TEST(AllFusersTest, HandleEmptyAndDegenerateDatabases) {
  ClaimDatabase empty;
  EXPECT_TRUE(MajorityVoteFuser().Fuse(empty).ok());
  EXPECT_TRUE(CrhFuser().Fuse(empty).ok());
  EXPECT_TRUE(TruthFinderFuser().Fuse(empty).ok());
  EXPECT_TRUE(AccuFuser().Fuse(empty).ok());

  ClaimDatabase lonely;
  lonely.AddSource("s");
  lonely.AddEntity("e");
  ASSERT_TRUE(lonely.AddValue(0, "only").ok());
  // Value never claimed; sources never claiming.
  EXPECT_TRUE(MajorityVoteFuser().Fuse(lonely).ok());
  EXPECT_TRUE(CrhFuser().Fuse(lonely).ok());
  EXPECT_TRUE(TruthFinderFuser().Fuse(lonely).ok());
  EXPECT_TRUE(AccuFuser().Fuse(lonely).ok());
}

TEST(ValidateFusionResultTest, CatchesBadResults) {
  ClaimDatabase db;
  db.AddEntity("e");
  ASSERT_TRUE(db.AddValue(0, "v").ok());
  FusionResult result;
  result.value_probability = {};  // wrong size
  EXPECT_FALSE(ValidateFusionResult(db, result).ok());
  result.value_probability = {1.5};  // out of range
  EXPECT_FALSE(ValidateFusionResult(db, result).ok());
  result.value_probability = {0.5};
  EXPECT_TRUE(ValidateFusionResult(db, result).ok());
}

}  // namespace
}  // namespace crowdfusion::fusion
