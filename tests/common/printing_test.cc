#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/csv_writer.h"
#include "common/table_printer.h"
#include "support/status_printing.h"
#include "temp_path.h"

namespace crowdfusion::common {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"k", "OPT"});
  table.AddRow({"1", "37.78"});
  table.AddRow({"10", "57198.67"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| k "), std::string::npos);
  EXPECT_NE(out.find("37.78"), std::string::npos);
  EXPECT_NE(out.find("57198.67"), std::string::npos);
  // Every data line has the same length.
  std::istringstream lines(out);
  std::string line;
  size_t expected = 0;
  while (std::getline(lines, line)) {
    if (expected == 0) expected = line.size();
    EXPECT_EQ(line.size(), expected);
  }
}

TEST(TablePrinterTest, NumRows) {
  TablePrinter table({"x"});
  EXPECT_EQ(table.num_rows(), 0u);
  table.AddRow({"1"});
  EXPECT_EQ(table.num_rows(), 1u);
}

class CsvWriterTest : public ::testing::Test {
 protected:
  std::string path_ = UniqueTempPath("cf_csv_test.csv");

  std::string ReadBack() {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvWriterTest, WritesHeaderAndRows) {
  auto writer = CsvWriter::Open(path_, {"a", "b"});
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE(writer->WriteRow({"1", "2"}).ok());
  writer->Close();
  EXPECT_EQ(ReadBack(), "a,b\n1,2\n");
}

TEST_F(CsvWriterTest, EscapesSpecialCharacters) {
  auto writer = CsvWriter::Open(path_, {"text"});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->WriteRow({"has,comma"}).ok());
  ASSERT_TRUE(writer->WriteRow({"has\"quote"}).ok());
  writer->Close();
  EXPECT_EQ(ReadBack(), "text\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST_F(CsvWriterTest, RejectsWidthMismatch) {
  auto writer = CsvWriter::Open(path_, {"a", "b"});
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ(writer->WriteRow({"only-one"}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CsvWriterTest, WriteAfterCloseFails) {
  auto writer = CsvWriter::Open(path_, {"a"});
  ASSERT_TRUE(writer.ok());
  writer->Close();
  EXPECT_EQ(writer->WriteRow({"x"}).code(), StatusCode::kFailedPrecondition);
}

TEST(CsvWriterOpenTest, BadPathFails) {
  auto writer = CsvWriter::Open("/nonexistent-dir/x.csv", {"a"});
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace crowdfusion::common
