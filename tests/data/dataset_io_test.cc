#include "data/dataset_io.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "support/status_printing.h"
#include "temp_path.h"

namespace crowdfusion::data {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  std::string path_ = UniqueTempPath("cf_book_dataset.tsv");

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".truth").c_str());
  }
};

TEST_F(DatasetIoTest, RoundTripPreservesClaimsAndTruth) {
  BookDatasetOptions options;
  options.num_books = 10;
  options.num_sources = 8;
  options.seed = 5;
  auto original = GenerateBookDataset(options);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveBookDataset(*original, path_).ok());

  auto loaded = LoadBookDataset(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  ASSERT_EQ(loaded->books.size(), original->books.size());
  EXPECT_EQ(loaded->claims.num_claims(), original->claims.num_claims());
  EXPECT_EQ(loaded->claims.num_values(), original->claims.num_values());
  EXPECT_EQ(loaded->claims.num_sources(), original->claims.num_sources());

  for (size_t b = 0; b < original->books.size(); ++b) {
    const Book& before = original->books[b];
    const Book& after = loaded->books[b];
    EXPECT_EQ(after.isbn, before.isbn);
    EXPECT_EQ(after.title, before.title);
    EXPECT_TRUE(SameAuthors(after.true_authors, before.true_authors));
    ASSERT_EQ(after.statements.size(), before.statements.size());
    for (size_t i = 0; i < before.statements.size(); ++i) {
      EXPECT_EQ(after.statements[i].text, before.statements[i].text);
      EXPECT_EQ(after.statements[i].is_true, before.statements[i].is_true);
      EXPECT_EQ(after.statements[i].category,
                before.statements[i].category);
    }
  }
  EXPECT_EQ(loaded->value_truth, original->value_truth);
}

TEST_F(DatasetIoTest, LoadedLabelsMatchIndependentLabeler) {
  BookDatasetOptions options;
  options.num_books = 6;
  options.seed = 11;
  auto original = GenerateBookDataset(options);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveBookDataset(*original, path_).ok());
  auto loaded = LoadBookDataset(path_);
  ASSERT_TRUE(loaded.ok());
  for (const Book& book : loaded->books) {
    for (const Statement& statement : book.statements) {
      EXPECT_EQ(statement.is_true,
                LabelStatement(statement.text, book.true_authors))
          << statement.text;
    }
  }
}

TEST_F(DatasetIoTest, MissingFilesReported) {
  EXPECT_FALSE(LoadBookDataset("/nonexistent/nowhere.tsv").ok());
}

TEST_F(DatasetIoTest, MalformedLinesRejected) {
  {
    std::ofstream truth(path_ + ".truth");
    truth << "isbn-1\tAlice Smith\n";
    std::ofstream claims(path_);
    claims << "isbn-1\tonly-two-fields\n";
  }
  EXPECT_FALSE(LoadBookDataset(path_).ok());
}

TEST_F(DatasetIoTest, ClaimForUnknownBookRejected) {
  {
    std::ofstream truth(path_ + ".truth");
    truth << "isbn-1\tAlice Smith\n";
    std::ofstream claims(path_);
    claims << "isbn-2\ttitle\tsrc\tAlice Smith\t1\tClean\n";
  }
  EXPECT_FALSE(LoadBookDataset(path_).ok());
}

}  // namespace
}  // namespace crowdfusion::data
