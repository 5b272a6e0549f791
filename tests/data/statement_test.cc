#include "data/statement.h"

#include <gtest/gtest.h>

namespace crowdfusion::data {
namespace {

const AuthorList kTruth = {{"Tyrone", "Adams"}, {"Sharon", "Scollard"}};

TEST(StatementTest, CategoryNamesAreDistinct) {
  EXPECT_STREQ(StatementCategoryName(StatementCategory::kClean), "Clean");
  EXPECT_STREQ(StatementCategoryName(StatementCategory::kReordered),
               "Reordered");
  EXPECT_STREQ(StatementCategoryName(StatementCategory::kAdditionalInfo),
               "AdditionalInfo");
  EXPECT_STREQ(StatementCategoryName(StatementCategory::kMisspelling),
               "Misspelling");
  EXPECT_STREQ(StatementCategoryName(StatementCategory::kWrongAuthor),
               "WrongAuthor");
  EXPECT_STREQ(StatementCategoryName(StatementCategory::kMissingAuthor),
               "MissingAuthor");
}

TEST(LabelStatementTest, AcceptsBothPaperTrueVariants) {
  // The paper's ISBN 0321304292 example: both statements are true.
  EXPECT_TRUE(LabelStatement("Adams, Tyrone; Scollard, Sharon", kTruth));
  EXPECT_TRUE(LabelStatement("Tyrone Adams; Sharon Scollard", kTruth));
}

TEST(LabelStatementTest, AcceptsReorderedList) {
  EXPECT_TRUE(LabelStatement("Sharon Scollard; Tyrone Adams", kTruth));
  EXPECT_TRUE(
      LabelStatement("SCOLLARD, SHARON; ADAMS, TYRONE", kTruth));
}

TEST(LabelStatementTest, RejectsAnnotation) {
  EXPECT_FALSE(LabelStatement(
      "Tyrone Adams; Sharon Scollard (ACME PUBLISHING GROUP)", kTruth));
}

TEST(LabelStatementTest, RejectsMisspelling) {
  EXPECT_FALSE(LabelStatement("Tyrone Adams; Sharon Scolard", kTruth));
  EXPECT_FALSE(LabelStatement("Tyrone Adamms; Sharon Scollard", kTruth));
}

TEST(LabelStatementTest, RejectsWrongOrMissingAuthor) {
  EXPECT_FALSE(LabelStatement("Tyrone Adams", kTruth));
  EXPECT_FALSE(LabelStatement("Tyrone Adams; Bob Wilson", kTruth));
  EXPECT_FALSE(
      LabelStatement("Tyrone Adams; Sharon Scollard; Bob Wilson", kTruth));
}

TEST(LabelStatementTest, EmptyStatementIsFalse) {
  EXPECT_FALSE(LabelStatement("", kTruth));
}

}  // namespace
}  // namespace crowdfusion::data
