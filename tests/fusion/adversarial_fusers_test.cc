/// Adversarial inputs for the trust-propagation fusers (ISSUE PR 7
/// satellite): a colluding clique that buys credibility with cover
/// traffic and then coordinates a lie. A MAJORITY clique flips
/// TruthFinder and Investment on the targeted entities — the documented
/// vulnerability the adversary suite exists to measure — while a
/// MINORITY clique is resisted and down-weighted.

#include <gtest/gtest.h>

#include "fusion/crh.h"
#include "fusion/majority_vote.h"
#include "fusion/truthfinder.h"
#include "fusion/web_link_fusers.h"
#include "support/status_printing.h"

namespace crowdfusion::fusion {
namespace {

constexpr int kEntities = 20;
constexpr int kFirstTarget = 15;  // entities 15..19 carry the lie

/// Sources 0..colluders-1 form the clique: truthful cover claims on
/// entities [0, kFirstTarget), a shared lie on the targets. Sources
/// colluders..colluders+honest-1 claim the truth everywhere.
ClaimDatabase CollusionDatabase(int colluders, int honest) {
  ClaimDatabase db;
  for (int s = 0; s < colluders + honest; ++s) {
    db.AddSource(std::to_string(s));
  }
  for (int e = 0; e < kEntities; ++e) {
    db.AddEntity();
    const int truth = db.AddValue(e, "truth").value();
    const int lie = db.AddValue(e, "lie").value();
    const bool targeted = e >= kFirstTarget;
    for (int s = 0; s < colluders; ++s) {
      EXPECT_TRUE(db.AddClaim(s, targeted ? lie : truth).ok());
    }
    for (int s = colluders; s < colluders + honest; ++s) {
      EXPECT_TRUE(db.AddClaim(s, truth).ok());
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

/// Targeted entities where the fuser prefers the truth over the lie.
int TargetsSurvived(const ClaimDatabase& db, const FusionResult& result) {
  int survived = 0;
  for (int e = kFirstTarget; e < kEntities; ++e) {
    const auto& values = db.entity_values(e);  // [truth, lie]
    if (result.value_probability[static_cast<size_t>(values[0])] >
        result.value_probability[static_cast<size_t>(values[1])]) {
      ++survived;
    }
  }
  return survived;
}

template <typename FuserT>
void ExpectMajorityCliqueFlipsTargets() {
  // 5 colluders vs 3 honest: the clique wins every target — its cover
  // traffic makes it look at least as accurate as the honest sources, so
  // trust propagation has nothing to push back with.
  const ClaimDatabase db = CollusionDatabase(5, 3);
  const FusionResult result = FuseOrDie<FuserT>(db);
  EXPECT_EQ(TargetsSurvived(db, result), 0);
  // Cover entities stay correct (everyone agrees there).
  for (int e = 0; e < kFirstTarget; ++e) {
    const auto& values = db.entity_values(e);
    EXPECT_GT(result.value_probability[static_cast<size_t>(values[0])],
              result.value_probability[static_cast<size_t>(values[1])])
        << "cover entity " << e;
  }
}

template <typename FuserT>
void ExpectMinorityCliqueResisted() {
  // 3 colluders vs 5 honest: perfect coordination is not enough — the
  // truth survives on every target and the clique ends down-weighted.
  const ClaimDatabase db = CollusionDatabase(3, 5);
  const FusionResult result = FuseOrDie<FuserT>(db);
  EXPECT_EQ(TargetsSurvived(db, result), kEntities - kFirstTarget);
  for (int colluder = 0; colluder < 3; ++colluder) {
    for (int honest = 3; honest < 8; ++honest) {
      EXPECT_GT(result.source_weight[static_cast<size_t>(honest)],
                result.source_weight[static_cast<size_t>(colluder)])
          << "honest " << honest << " vs colluder " << colluder;
    }
  }
}

TEST(TruthFinderAdversaryTest, MajorityCliqueFlipsTargets) {
  ExpectMajorityCliqueFlipsTargets<TruthFinderFuser>();
}

TEST(TruthFinderAdversaryTest, MinorityCliqueResisted) {
  ExpectMinorityCliqueResisted<TruthFinderFuser>();
}

TEST(InvestmentAdversaryTest, MajorityCliqueFlipsTargets) {
  ExpectMajorityCliqueFlipsTargets<InvestmentFuser>();
}

TEST(InvestmentAdversaryTest, MinorityCliqueResisted) {
  ExpectMinorityCliqueResisted<InvestmentFuser>();
}

TEST(MajorityVoteAdversaryTest, FlipsWithTheHeadcount) {
  // The baseline everyone measures against: pure headcount flips exactly
  // when the clique outnumbers the honest pool.
  const ClaimDatabase majority = CollusionDatabase(5, 3);
  EXPECT_EQ(TargetsSurvived(majority, FuseOrDie<MajorityVoteFuser>(majority)),
            0);
  const ClaimDatabase minority = CollusionDatabase(3, 5);
  EXPECT_EQ(TargetsSurvived(minority, FuseOrDie<MajorityVoteFuser>(minority)),
            kEntities - kFirstTarget);
}

TEST(CrhAdversaryTest, MinorityCliqueResisted) {
  ExpectMinorityCliqueResisted<CrhFuser>();
}

}  // namespace
}  // namespace crowdfusion::fusion
