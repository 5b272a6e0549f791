#include "fusion/web_link_fusers.h"

#include "common/string_util.h"
#include "support/status_printing.h"

#include <gtest/gtest.h>

namespace crowdfusion::fusion {
namespace {

/// 5 trustworthy sources agree on the truth of 12 entities; 2 noisy
/// sources claim a shared lie everywhere.
ClaimDatabase AgreementDatabase() {
  ClaimDatabase db;
  for (int s = 0; s < 7; ++s) db.AddSource(common::StrFormat("s%d", s));
  for (int e = 0; e < 12; ++e) {
    db.AddEntity();
    const int truth = db.AddValue(e, "truth").value();
    const int lie = db.AddValue(e, "lie").value();
    for (int s = 0; s < 5; ++s) EXPECT_TRUE(db.AddClaim(s, truth).ok());
    for (int s = 5; s < 7; ++s) EXPECT_TRUE(db.AddClaim(s, lie).ok());
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

template <typename FuserT>
void ExpectTruthWinsEverywhere() {
  const ClaimDatabase db = AgreementDatabase();
  const FusionResult result = FuseOrDie<FuserT>(db);
  for (int e = 0; e < db.num_entities(); ++e) {
    const auto& values = db.entity_values(e);  // [truth, lie]
    EXPECT_GT(result.value_probability[static_cast<size_t>(values[0])],
              result.value_probability[static_cast<size_t>(values[1])])
        << "entity " << e;
  }
  // Trustworthy sources end with higher weight than the noisy pair.
  for (int good = 0; good < 5; ++good) {
    for (int bad = 5; bad < 7; ++bad) {
      EXPECT_GT(result.source_weight[static_cast<size_t>(good)],
                result.source_weight[static_cast<size_t>(bad)]);
    }
  }
}

TEST(SumsFuserTest, MajorityConsensusWins) {
  ExpectTruthWinsEverywhere<SumsFuser>();
}

TEST(AverageLogFuserTest, MajorityConsensusWins) {
  ExpectTruthWinsEverywhere<AverageLogFuser>();
}

TEST(InvestmentFuserTest, MajorityConsensusWins) {
  ExpectTruthWinsEverywhere<InvestmentFuser>();
}

TEST(WebLinkFusersTest, ProbabilitiesAreClampedShares) {
  const ClaimDatabase db = AgreementDatabase();
  for (const FusionResult& result :
       {FuseOrDie<SumsFuser>(db), FuseOrDie<AverageLogFuser>(db),
        FuseOrDie<InvestmentFuser>(db)}) {
    for (double p : result.value_probability) {
      EXPECT_GE(p, 0.02 - 1e-12);
      EXPECT_LE(p, 0.98 + 1e-12);
    }
  }
}

TEST(WebLinkFusersTest, HandleEmptyAndUnclaimedValues) {
  ClaimDatabase empty;
  EXPECT_TRUE(SumsFuser().Fuse(empty).ok());
  EXPECT_TRUE(AverageLogFuser().Fuse(empty).ok());
  EXPECT_TRUE(InvestmentFuser().Fuse(empty).ok());

  ClaimDatabase lonely;
  lonely.AddSource("s");
  lonely.AddEntity();
  ASSERT_TRUE(lonely.AddValue(0, "unclaimed").ok());
  for (auto* fuser :
       std::initializer_list<Fuser*>{new SumsFuser, new AverageLogFuser,
                                     new InvestmentFuser}) {
    auto result = fuser->Fuse(lonely);
    ASSERT_TRUE(result.ok()) << fuser->name();
    EXPECT_TRUE(ValidateFusionResult(lonely, *result).ok());
    delete fuser;
  }
}

TEST(AverageLogFuserTest, DampsProlificLowQualitySources) {
  // A spammer claiming a unique lie on every entity plus agreeing good
  // sources: Average-Log should rate the spammer below the good sources
  // even though it has the most claims.
  ClaimDatabase db;
  for (int s = 0; s < 4; ++s) db.AddSource(common::StrFormat("s%d", s));
  const int spammer = 3;
  for (int e = 0; e < 10; ++e) {
    db.AddEntity();
    const int truth = db.AddValue(e, "truth").value();
    const int spam = db.AddValue(e, common::StrFormat("spam-%d", e)).value();
    for (int s = 0; s < 3; ++s) ASSERT_TRUE(db.AddClaim(s, truth).ok());
    ASSERT_TRUE(db.AddClaim(spammer, spam).ok());
  }
  const FusionResult result = FuseOrDie<AverageLogFuser>(db);
  for (int good = 0; good < 3; ++good) {
    EXPECT_GT(result.source_weight[static_cast<size_t>(good)],
              result.source_weight[static_cast<size_t>(spammer)]);
  }
}

TEST(InvestmentFuserTest, ExponentRewardsConcentration) {
  // With g > 1 the invested-belief growth is superlinear; the fuser
  // separates a 3-vote truth from a 1-vote lie by a larger probability
  // gap than Sums does.
  const ClaimDatabase db = AgreementDatabase();
  const FusionResult sums = FuseOrDie<SumsFuser>(db);
  const FusionResult investment = FuseOrDie<InvestmentFuser>(db);
  const auto& values = db.entity_values(0);
  const double sums_gap =
      sums.value_probability[static_cast<size_t>(values[0])] -
      sums.value_probability[static_cast<size_t>(values[1])];
  const double investment_gap =
      investment.value_probability[static_cast<size_t>(values[0])] -
      investment.value_probability[static_cast<size_t>(values[1])];
  EXPECT_GE(investment_gap, sums_gap - 1e-9);
}

}  // namespace
}  // namespace crowdfusion::fusion
