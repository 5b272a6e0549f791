#include "common/bench_report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace crowdfusion::common {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

BenchRecord MakeRecord(const std::string& config, int n, double wall_ms) {
  BenchRecord record;
  record.source = "test_bench";
  record.config = config;
  record.n = n;
  record.support = 1000;
  record.k = 3;
  record.wall_ms = wall_ms;
  record.entropy_bits = 2.9425917112980505;  // full-precision round trip
  return record;
}

TEST(BenchReportTest, RoundTripsRecordsExactly) {
  const std::string path = TempPath("bench_report_roundtrip.json");
  BenchReport report("test_bench");
  report.Add(MakeRecord("Approx.&Pre.", 14, 1.25));
  // Strings with JSON-hostile characters must survive.
  report.Add(MakeRecord("weird \"quoted\" \\ config\tname", 64, 0.0625));
  ASSERT_TRUE(report.WriteFile(path).ok());

  auto loaded = BenchReport::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, report.records());
  std::remove(path.c_str());
}

TEST(BenchReportTest, NonFiniteMeasurementsWriteNullAndReadBackAsNaN) {
  const std::string path = TempPath("bench_report_nonfinite.json");
  const double inf = std::numeric_limits<double>::infinity();
  BenchReport report("test_bench");
  BenchRecord record = MakeRecord("inf", 4, inf);
  record.entropy_bits = std::nan("");
  record.p50_ms = 0.1;
  report.Add(record);
  ASSERT_TRUE(report.WriteFile(path).ok());

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("\"wall_ms\": null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"entropy_bits\": null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"p50_ms\": 0.1,"), std::string::npos) << text;

  auto loaded = BenchReport::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_TRUE(std::isnan((*loaded)[0].wall_ms));
  EXPECT_TRUE(std::isnan((*loaded)[0].entropy_bits));
  EXPECT_EQ((*loaded)[0].p50_ms, 0.1);
  std::remove(path.c_str());
}

TEST(BenchReportTest, DefaultSourceStampsRecords) {
  BenchReport report("my_bench");
  BenchRecord record;
  record.config = "cfg";
  report.Add(record);
  ASSERT_EQ(report.records().size(), 1u);
  EXPECT_EQ(report.records()[0].source, "my_bench");
}

TEST(BenchReportTest, MergeReplacesMatchingKeysAndAppendsNew) {
  const std::string path = TempPath("bench_report_merge.json");
  std::remove(path.c_str());

  BenchReport first("test_bench");
  first.Add(MakeRecord("OPT", 10, 5.0));
  first.Add(MakeRecord("Approx.", 10, 2.0));
  ASSERT_TRUE(first.MergeToFile(path).ok());  // merge into missing file: fine

  BenchReport second("test_bench");
  second.Add(MakeRecord("Approx.", 10, 1.5));  // same key: replace
  second.Add(MakeRecord("Approx.", 20, 9.0));  // new n: append
  ASSERT_TRUE(second.MergeToFile(path).ok());

  auto loaded = BenchReport::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_EQ(loaded->at(0).config, "OPT");
  EXPECT_EQ(loaded->at(1).config, "Approx.");
  EXPECT_EQ(loaded->at(1).wall_ms, 1.5);  // replaced, not duplicated
  EXPECT_EQ(loaded->at(2).n, 20);
  std::remove(path.c_str());
}

TEST(BenchReportTest, LoadMissingFileIsNotFound) {
  auto loaded = BenchReport::Load(TempPath("no_such_report.json"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(BenchReportTest, MergeRefusesToClobberMalformedBaseline) {
  const std::string path = TempPath("bench_report_corrupt.json");
  {
    std::ofstream stream(path);
    stream << "{\"records\": [ {\"config\": ";  // truncated
  }
  auto loaded = BenchReport::Load(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  BenchReport report("test_bench");
  report.Add(MakeRecord("OPT", 10, 5.0));
  EXPECT_FALSE(report.MergeToFile(path).ok());
  std::remove(path.c_str());
}

TEST(BenchReportTest, MalformedUnicodeEscapeIsAnErrorNotACrash) {
  const std::string path = TempPath("bench_report_badescape.json");
  {
    std::ofstream stream(path);
    stream << R"({"records": [{"config": "\uZZZZ"}]})";
  }
  auto loaded = BenchReport::Load(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(BenchReportTest, NullIntegerFieldIsAnErrorNotUndefinedBehavior) {
  const std::string path = TempPath("bench_report_nullint.json");
  {
    std::ofstream stream(path);
    stream << R"({"records": [{"config": "c", "n": null, "wall_ms": null}]})";
  }
  auto loaded = BenchReport::Load(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(BenchReportTest, LoadSkipsUnknownBooleanAndNullFields) {
  const std::string path = TempPath("bench_report_bools.json");
  {
    std::ofstream stream(path);
    stream << R"({
      "release": true, "draft": false, "notes": null,
      "records": [
        {"source": "s", "config": "c", "n": 1, "support": 2, "k": 1,
         "wall_ms": 0.25, "entropy_bits": 0.5, "cached": false}
      ]
    })";
  }
  auto loaded = BenchReport::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->at(0).wall_ms, 0.25);
  std::remove(path.c_str());
}

TEST(BenchReportTest, ServiceFieldsRoundTripAndStayOptional) {
  const std::string path = TempPath("bench_report_service.json");
  BenchReport report("bench_service_throughput");
  BenchRecord selection = MakeRecord("Approx.&Pre.", 14, 1.25);
  BenchRecord service = MakeRecord("pipelined[m=4]", 8, 150.0);
  service.throughput_per_sec = 160.5;
  service.p50_ms = 6.25;
  service.p95_ms = 11.0;
  report.Add(selection);
  report.Add(service);
  ASSERT_TRUE(report.WriteFile(path).ok());

  // Selection rows keep the v1 shape; service rows carry the v2 fields.
  const std::string json = report.ToJson();
  EXPECT_EQ(json.find("throughput_per_sec"), json.rfind("throughput_per_sec"));

  auto loaded = BenchReport::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->at(0).throughput_per_sec, 0.0);
  EXPECT_EQ(loaded->at(1).throughput_per_sec, 160.5);
  EXPECT_EQ(loaded->at(1).p50_ms, 6.25);
  EXPECT_EQ(loaded->at(1).p95_ms, 11.0);
  EXPECT_EQ(*loaded, report.records());
  std::remove(path.c_str());
}

TEST(BenchReportTest, LoadsV1FilesWithoutServiceFields) {
  const std::string path = TempPath("bench_report_v1.json");
  {
    std::ofstream stream(path);
    stream << R"({
      "schema": "crowdfusion-bench-v1",
      "records": [
        {"source": "s", "config": "c", "n": 7, "support": 11, "k": 2,
         "wall_ms": 0.5, "entropy_bits": 1.5}
      ]
    })";
  }
  auto loaded = BenchReport::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->at(0).throughput_per_sec, 0.0);
  EXPECT_EQ(loaded->at(0).p50_ms, 0.0);
  EXPECT_EQ(loaded->at(0).p95_ms, 0.0);
  std::remove(path.c_str());
}

TEST(BenchReportTest, LoadSkipsUnknownKeys) {
  const std::string path = TempPath("bench_report_future.json");
  {
    std::ofstream stream(path);
    stream << R"({
      "schema": "crowdfusion-bench-v2",
      "host": {"cpu": "m9", "cores": [1, 2, {"x": "]"}]},
      "records": [
        {"source": "s", "config": "c", "n": 7, "support": 11, "k": 2,
         "wall_ms": 0.5, "entropy_bits": 1.5, "future_field": "ignored"}
      ]
    })";
  }
  auto loaded = BenchReport::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->at(0).source, "s");
  EXPECT_EQ(loaded->at(0).n, 7);
  EXPECT_EQ(loaded->at(0).support, 11);
  EXPECT_EQ(loaded->at(0).wall_ms, 0.5);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace crowdfusion::common
