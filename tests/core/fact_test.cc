#include "core/fact.h"

#include <gtest/gtest.h>

namespace crowdfusion::core {
namespace {

TEST(FactTest, ToStringFormatsTriple) {
  const Fact fact{"Mount Everest", "Height", "29,029 ft"};
  EXPECT_EQ(fact.ToString(), "Mount Everest | Height | 29,029 ft");
}

TEST(FactTest, Equality) {
  const Fact a{"s", "p", "o"};
  const Fact b{"s", "p", "o"};
  const Fact c{"s", "p", "other"};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(FactSetTest, AddAssignsSequentialIds) {
  FactSet facts;
  EXPECT_TRUE(facts.empty());
  EXPECT_EQ(facts.Add({"a", "b", "c"}), 0);
  EXPECT_EQ(facts.Add({"d", "e", "f"}), 1);
  EXPECT_EQ(facts.size(), 2);
  EXPECT_FALSE(facts.empty());
  EXPECT_EQ(facts.at(1).subject, "d");
}

TEST(FactSetTest, ConstructFromVector) {
  const FactSet facts({{"a", "b", "c"}, {"d", "e", "f"}});
  EXPECT_EQ(facts.size(), 2);
  EXPECT_EQ(facts.facts()[0].predicate, "b");
}

TEST(FactSetDeathTest, AtOutOfRangeAborts) {
  FactSet facts;
  facts.Add({"a", "b", "c"});
  EXPECT_DEATH(facts.at(1), "fact id out of range");
  EXPECT_DEATH(facts.at(-1), "fact id out of range");
}

}  // namespace
}  // namespace crowdfusion::core
