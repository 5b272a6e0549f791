#include "data/book_dataset.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace crowdfusion::data {
namespace {

BookDatasetOptions SmallOptions() {
  BookDatasetOptions options;
  options.num_books = 20;
  options.num_sources = 12;
  options.seed = 42;
  return options;
}

TEST(BookDatasetTest, ValidatesOptions) {
  BookDatasetOptions bad = SmallOptions();
  bad.num_books = 0;
  EXPECT_FALSE(GenerateBookDataset(bad).ok());
  bad = SmallOptions();
  bad.min_authors = 3;
  bad.max_authors = 2;
  EXPECT_FALSE(GenerateBookDataset(bad).ok());
  bad = SmallOptions();
  bad.true_variants = 0;
  EXPECT_FALSE(GenerateBookDataset(bad).ok());
  bad = SmallOptions();
  bad.coverage = 0.0;
  EXPECT_FALSE(GenerateBookDataset(bad).ok());
}

TEST(BookDatasetTest, DeterministicInSeed) {
  auto a = GenerateBookDataset(SmallOptions());
  auto b = GenerateBookDataset(SmallOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->books.size(), b->books.size());
  for (size_t i = 0; i < a->books.size(); ++i) {
    EXPECT_EQ(a->books[i].title, b->books[i].title);
    ASSERT_EQ(a->books[i].statements.size(), b->books[i].statements.size());
    for (size_t j = 0; j < a->books[i].statements.size(); ++j) {
      EXPECT_EQ(a->books[i].statements[j].text,
                b->books[i].statements[j].text);
    }
  }
  BookDatasetOptions other = SmallOptions();
  other.seed = 43;
  auto c = GenerateBookDataset(other);
  ASSERT_TRUE(c.ok());
  bool any_difference = a->books.size() != c->books.size();
  for (size_t i = 0; !any_difference && i < a->books.size(); ++i) {
    any_difference = a->books[i].true_authors != c->books[i].true_authors;
  }
  EXPECT_TRUE(any_difference);
}

TEST(BookDatasetTest, StructuralInvariants) {
  auto dataset = GenerateBookDataset(SmallOptions());
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(static_cast<int>(dataset->books.size()),
            SmallOptions().num_books);
  EXPECT_EQ(dataset->claims.num_entities(), SmallOptions().num_books);
  EXPECT_EQ(dataset->claims.num_sources(), SmallOptions().num_sources);
  EXPECT_EQ(dataset->value_truth.size(),
            static_cast<size_t>(dataset->claims.num_values()));

  for (const Book& book : dataset->books) {
    EXPECT_EQ(book.statements.size(), book.value_ids.size());
    EXPECT_FALSE(book.true_authors.empty());
    EXPECT_LE(static_cast<int>(book.true_authors.size()),
              SmallOptions().max_authors);
    // Statement pool caps hold.
    EXPECT_LE(static_cast<int>(book.statements.size()),
              SmallOptions().true_variants + SmallOptions().false_variants);
    // Every statement's stored label matches the independent labeler.
    for (const Statement& statement : book.statements) {
      EXPECT_EQ(statement.is_true,
                LabelStatement(statement.text, book.true_authors))
          << statement.text;
      // Clean and reordered statements are the true ones.
      EXPECT_EQ(statement.is_true,
                statement.category == StatementCategory::kClean ||
                    statement.category == StatementCategory::kReordered);
    }
  }
}

TEST(BookDatasetTest, EveryTrackedStatementIsClaimed) {
  auto dataset = GenerateBookDataset(SmallOptions());
  ASSERT_TRUE(dataset.ok());
  for (const Book& book : dataset->books) {
    for (int vid : book.value_ids) {
      EXPECT_FALSE(dataset->claims.value_sources(vid).empty());
    }
  }
}

TEST(BookDatasetTest, RawClaimAccuracyNearHalf) {
  // The paper reports ≈50% of raw web claims are correct; the default
  // generator is calibrated to the same ballpark.
  BookDatasetOptions options = SmallOptions();
  options.num_books = 100;
  options.num_sources = 30;
  auto dataset = GenerateBookDataset(options);
  ASSERT_TRUE(dataset.ok());
  const double fraction = dataset->FractionTrueClaims();
  EXPECT_GT(fraction, 0.35);
  EXPECT_LT(fraction, 0.65);
}

TEST(BookDatasetTest, SkewedSourcesExistAcrossDomains) {
  BookDatasetOptions options = SmallOptions();
  options.num_sources = 40;
  options.skewed_source_fraction = 1.0;
  auto dataset = GenerateBookDataset(options);
  ASSERT_TRUE(dataset.ok());
  int skewed = 0;
  for (const SourceProfile& source : dataset->sources) {
    if (std::abs(source.accuracy_textbook - source.accuracy_non_textbook) >
        0.2) {
      ++skewed;
    }
  }
  EXPECT_GT(skewed, 30);  // nearly all sources are eCampus-style skewed
}

TEST(BookDatasetTest, ErrorCategoriesAllAppear) {
  BookDatasetOptions options = SmallOptions();
  options.num_books = 60;
  auto dataset = GenerateBookDataset(options);
  ASSERT_TRUE(dataset.ok());
  int counts[6] = {0, 0, 0, 0, 0, 0};
  for (StatementCategory category : dataset->value_category) {
    ++counts[static_cast<int>(category)];
  }
  EXPECT_GT(counts[static_cast<int>(StatementCategory::kClean)], 0);
  EXPECT_GT(counts[static_cast<int>(StatementCategory::kReordered)], 0);
  EXPECT_GT(counts[static_cast<int>(StatementCategory::kAdditionalInfo)], 0);
  EXPECT_GT(counts[static_cast<int>(StatementCategory::kMisspelling)], 0);
  EXPECT_GT(counts[static_cast<int>(StatementCategory::kWrongAuthor)], 0);
}

TEST(BookDatasetTest, LargeFactPoolsForTimingBenchmarks) {
  // Table V needs books with > 20 facts.
  BookDatasetOptions options = SmallOptions();
  options.num_books = 4;
  options.num_sources = 60;
  options.coverage = 0.9;
  options.true_variants = 8;
  options.false_variants = 16;
  auto dataset = GenerateBookDataset(options);
  ASSERT_TRUE(dataset.ok());
  int max_facts = 0;
  for (const Book& book : dataset->books) {
    max_facts = std::max(max_facts, static_cast<int>(book.statements.size()));
  }
  EXPECT_GT(max_facts, 15);
}

TEST(BookDatasetTest, SingleAuthorBooksNeverProduceEmptyLists) {
  BookDatasetOptions options = SmallOptions();
  options.min_authors = 1;
  options.max_authors = 1;
  auto dataset = GenerateBookDataset(options);
  ASSERT_TRUE(dataset.ok());
  for (const Book& book : dataset->books) {
    for (const Statement& statement : book.statements) {
      EXPECT_FALSE(statement.text.empty());
    }
  }
}

}  // namespace
}  // namespace crowdfusion::data
