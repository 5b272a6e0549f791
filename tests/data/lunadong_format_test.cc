#include "data/lunadong_format.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "temp_path.h"

namespace crowdfusion::data {
namespace {

class LunadongFormatTest : public ::testing::Test {
 protected:
  std::string claims_path_ = UniqueTempPath("cf_lunadong_claims.txt");
  std::string gold_path_ = UniqueTempPath("cf_lunadong_gold.txt");

  void WriteFixture() {
    std::ofstream gold(gold_path_);
    gold << "0321304292\tTyrone Adams; Sharon Scollard\n";
    gold << "1558608109\tPete Loshin\n";

    std::ofstream claims(claims_path_);
    // Clean true claim.
    claims << "amazon\t0321304292\tInternet Effectively\t"
              "Tyrone Adams; Sharon Scollard\n";
    // Reordered true claim (different source, other format).
    claims << "ecampus\t0321304292\tInternet Effectively\t"
              "Scollard, Sharon; Adams, Tyrone\n";
    // Additional-information claim.
    claims << "bookpool\t0321304292\tInternet Effectively\t"
              "Tyrone Adams; Sharon Scollard (ACME PRESS)\n";
    // Misspelled claim on the second book.
    claims << "amazon\t1558608109\tIPv6 Clearly Explained\tPeter Loshin\n";
    // Claim on a book without gold.
    claims << "amazon\t9999999999\tMystery Book\tUnknown Author\n";
  }

  void TearDown() override {
    std::remove(claims_path_.c_str());
    std::remove(gold_path_.c_str());
  }
};

TEST_F(LunadongFormatTest, LoadsClaimsAndLabels) {
  WriteFixture();
  LunadongLoadStats stats;
  auto dataset = LoadLunadongBookDataset(claims_path_, gold_path_, &stats);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_EQ(stats.books, 3);
  EXPECT_EQ(stats.books_with_gold, 2);
  EXPECT_EQ(stats.sources, 3);
  EXPECT_EQ(stats.claims, 5);
  EXPECT_EQ(stats.skipped_lines, 0);

  const Book& book = dataset->books[0];
  ASSERT_EQ(book.statements.size(), 3u);
  EXPECT_TRUE(book.statements[0].is_true);
  EXPECT_EQ(book.statements[0].category, StatementCategory::kClean);
  EXPECT_TRUE(book.statements[1].is_true);
  EXPECT_EQ(book.statements[1].category, StatementCategory::kReordered);
  EXPECT_FALSE(book.statements[2].is_true);
  EXPECT_EQ(book.statements[2].category,
            StatementCategory::kAdditionalInfo);

  const Book& loshin = dataset->books[1];
  ASSERT_EQ(loshin.statements.size(), 1u);
  EXPECT_FALSE(loshin.statements[0].is_true);
  EXPECT_EQ(loshin.statements[0].category, StatementCategory::kMisspelling);

  // Book without gold: kept, labeled false.
  const Book& mystery = dataset->books[2];
  EXPECT_TRUE(mystery.true_authors.empty());
  EXPECT_FALSE(mystery.statements[0].is_true);
}

TEST_F(LunadongFormatTest, SkipsMalformedLinesAndCounts) {
  {
    std::ofstream gold(gold_path_);
    gold << "isbn-1\tAlice Smith\n";
    std::ofstream claims(claims_path_);
    claims << "too\tfew\tfields\n";
    claims << "src\tisbn-1\ttitle\tAlice Smith\n";
    claims << "\n";
  }
  LunadongLoadStats stats;
  auto dataset = LoadLunadongBookDataset(claims_path_, gold_path_, &stats);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(stats.claims, 1);
  EXPECT_EQ(stats.skipped_lines, 1);
}

TEST_F(LunadongFormatTest, MissingFilesReported) {
  EXPECT_FALSE(
      LoadLunadongBookDataset("/nonexistent/c.txt", "/nonexistent/g.txt")
          .ok());
  WriteFixture();
  EXPECT_FALSE(
      LoadLunadongBookDataset(claims_path_, "/nonexistent/g.txt").ok());
}

TEST_F(LunadongFormatTest, EmptyClaimsRejected) {
  {
    std::ofstream gold(gold_path_);
    gold << "isbn-1\tAlice Smith\n";
    std::ofstream claims(claims_path_);
  }
  EXPECT_FALSE(LoadLunadongBookDataset(claims_path_, gold_path_).ok());
}

TEST(InferCategoryTest, CoversAllBranches) {
  const AuthorList gold = {{"Tyrone", "Adams"}, {"Sharon", "Scollard"}};
  EXPECT_EQ(InferCategory("Tyrone Adams; Sharon Scollard", gold),
            StatementCategory::kClean);
  EXPECT_EQ(InferCategory("Sharon Scollard; Tyrone Adams", gold),
            StatementCategory::kReordered);
  EXPECT_EQ(InferCategory("Tyrone Adams; Sharon Scollard (MIT)", gold),
            StatementCategory::kAdditionalInfo);
  EXPECT_EQ(InferCategory("Tyrone Adams; Sharon Scolard", gold),
            StatementCategory::kMisspelling);
  EXPECT_EQ(InferCategory("Tyrone Adams", gold),
            StatementCategory::kMissingAuthor);
  EXPECT_EQ(InferCategory("Bob Wilson; Carol White", gold),
            StatementCategory::kWrongAuthor);
}

}  // namespace
}  // namespace crowdfusion::data
