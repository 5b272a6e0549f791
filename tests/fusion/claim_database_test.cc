#include "fusion/claim_database.h"

#include <gtest/gtest.h>

namespace crowdfusion::fusion {
namespace {

using common::StatusCode;

TEST(ClaimDatabaseTest, AddSourcesEntitiesValues) {
  ClaimDatabase db;
  EXPECT_EQ(db.AddSource("amazon"), 0);
  EXPECT_EQ(db.AddSource("ecampus"), 1);
  EXPECT_EQ(db.AddEntity("isbn-1"), 0);
  auto v0 = db.AddValue(0, "Alice Smith");
  auto v1 = db.AddValue(0, "Bob Jones");
  ASSERT_TRUE(v0.ok());
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v0.value(), 0);
  EXPECT_EQ(v1.value(), 1);
  EXPECT_EQ(db.num_sources(), 2);
  EXPECT_EQ(db.num_entities(), 1);
  EXPECT_EQ(db.num_values(), 2);
}

TEST(ClaimDatabaseTest, DuplicateValueTextReturnsSameId) {
  ClaimDatabase db;
  db.AddEntity("e");
  auto a = db.AddValue(0, "same text");
  auto b = db.AddValue(0, "same text");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(db.num_values(), 1);
}

TEST(ClaimDatabaseTest, SameTextDifferentEntitiesDistinctValues) {
  ClaimDatabase db;
  db.AddEntity("e1");
  db.AddEntity("e2");
  auto a = db.AddValue(0, "text");
  auto b = db.AddValue(1, "text");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
}

TEST(ClaimDatabaseTest, AddValueValidatesEntity) {
  ClaimDatabase db;
  EXPECT_EQ(db.AddValue(0, "x").status().code(), StatusCode::kOutOfRange);
}

TEST(ClaimDatabaseTest, ClaimsAreIdempotentAndIndexed) {
  ClaimDatabase db;
  db.AddSource("s0");
  db.AddSource("s1");
  db.AddEntity("e");
  const int v = db.AddValue(0, "val").value();
  ASSERT_TRUE(db.AddClaim(0, v).ok());
  ASSERT_TRUE(db.AddClaim(0, v).ok());  // duplicate
  ASSERT_TRUE(db.AddClaim(1, v).ok());
  EXPECT_EQ(db.num_claims(), 2);
  EXPECT_EQ(db.value_sources(v).size(), 2u);
  EXPECT_EQ(db.source_values(0).size(), 1u);
}

TEST(ClaimDatabaseTest, AddClaimValidatesIds) {
  ClaimDatabase db;
  db.AddSource("s");
  db.AddEntity("e");
  const int v = db.AddValue(0, "val").value();
  EXPECT_EQ(db.AddClaim(5, v).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(db.AddClaim(0, 5).code(), StatusCode::kOutOfRange);
}

TEST(ClaimDatabaseTest, EntitySourcesDeduplicatesAndSorts) {
  ClaimDatabase db;
  db.AddSource("s0");
  db.AddSource("s1");
  db.AddSource("s2");
  db.AddEntity("e");
  const int v0 = db.AddValue(0, "a").value();
  const int v1 = db.AddValue(0, "b").value();
  ASSERT_TRUE(db.AddClaim(2, v0).ok());
  ASSERT_TRUE(db.AddClaim(0, v1).ok());
  ASSERT_TRUE(db.AddClaim(2, v1).ok());
  EXPECT_EQ(db.EntitySources(0), (std::vector<int>{0, 2}));
}

TEST(ClaimDatabaseTest, EmptyEntityHasNoSources) {
  ClaimDatabase db;
  db.AddEntity("lonely");
  EXPECT_TRUE(db.EntitySources(0).empty());
  EXPECT_TRUE(db.entity_values(0).empty());
}

}  // namespace
}  // namespace crowdfusion::fusion
