/// Self-tests of the benchmark's own accounting: the open-loop schedule
/// and lateness, percentile sample counts, the served-response check (a
/// corrupted body or a mismatched utility is a failed op), the key
/// scanner, and span self time. Exits 0 when every check passes.
///
/// usage: perfbench_selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"
#include "service/request_json.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(condition)                                              \
  do {                                                                 \
    if (!(condition)) {                                                \
      ++failures;                                                      \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #condition); \
    }                                                                  \
  } while (0)

void TestOpenLoopSchedule() {
  EXPECT(ScheduledOffsetSeconds(0, 2000.0) == 0.0);
  EXPECT(std::fabs(ScheduledOffsetSeconds(3000, 2000.0) - 1.5) < 1e-12);
  // 500 ops/s for 0.2 s: exactly the 100 ops due in [0, 0.2) are sent,
  // each op's latency (from its due time) is at least its lateness, and
  // instant ops leave the generator on time.
  const LoopResult result =
      RunOpenLoop(2, 500.0, 0.2, [](int, int64_t) { return true; });
  EXPECT(result.attempted == 100);
  EXPECT(result.failed == 0);
  EXPECT(result.late_ms.count() == 100);
  EXPECT(result.latency_ms.Percentile(1.0) >= result.late_ms.Percentile(1.0));
  EXPECT(result.late_ms.Percentile(0.5) < 5.0);
  EXPECT(result.wall_seconds >= 0.19);
}

void TestLatenessAccounting() {
  // One lane at 1000 ops/s whose ops take 3 ms: op i goes out near 3i ms
  // though due at i ms, so the generator falls ~2 ms further behind per
  // op and every wait shows up in that op's latency.
  const LoopResult result = RunOpenLoop(1, 1000.0, 0.05, [](int, int64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    return true;
  });
  EXPECT(result.attempted == 50);
  const double last_late = result.late_ms.Percentile(1.0);
  EXPECT(last_late >= 2.0 * 49 * 0.9);
  EXPECT(result.latency_ms.Percentile(1.0) >= last_late + 2.0);
  EXPECT(result.late_ms.Percentile(0.0) < 1.0);
  const LatencySummary late = Summarize(result.late_ms);
  EXPECT(late.samples == 50);
  EXPECT(late.p50 >= 2.0 * 24 * 0.9 && late.p50 < late.p95);
}

void TestPercentileSampleCounts() {
  Histogram histogram;
  for (int i = 1; i <= 200; ++i) histogram.Record(i);
  const LatencySummary summary = Summarize(histogram);
  EXPECT(summary.samples == 200);
  // Ranks 100 and 189 (zero-based) of 1..200, to the 0.2% bucket width.
  EXPECT(std::fabs(summary.p50 / 101.0 - 1.0) < 0.003);
  EXPECT(std::fabs(summary.p95 / 190.0 - 1.0) < 0.003);
  EXPECT(summary.beyond_p95 == 10);
  // Merging lanes is counting: two halves give the same percentiles.
  Histogram odd, even;
  for (int i = 1; i <= 200; ++i) (i % 2 ? odd : even).Record(i);
  odd.Merge(even);
  EXPECT(odd.count() == 200 && odd.Percentile(0.95) == summary.p95);
  // A failed op is a miss: with 10% failures the p95 is the miss value.
  Histogram with_misses;
  for (int i = 0; i < 90; ++i) with_misses.Record(1.0);
  for (int i = 0; i < 10; ++i) with_misses.Record(kMissLatencyMs);
  EXPECT(Summarize(with_misses).p95 >= kMissLatencyMs * 0.99);
  EXPECT(std::fabs(Summarize(with_misses).p50 - 1.0) < 0.003);
}

void TestResponseCheck() {
  const cf::service::FusionService service;
  auto config = FindWorkload("run-small");
  EXPECT(config.ok());
  auto pool = BuildPool(*config, 7, "", service);
  EXPECT(pool.ok() && pool->size() == 64);
  if (!pool.ok()) return;
  pool->resize(1);
  EXPECT(ComputeExpected(&*pool, service, 1).ok());
  PoolItem& item = pool->front();
  auto response = service.Run(item.request);
  EXPECT(response.ok());
  if (!response.ok()) return;
  const std::string good =
      cf::service::FusionResponseToJson(*response).Dump();

  LaneStats stats;
  EXPECT(AcceptFusionResponse(item, 200, good, stats));
  EXPECT(stats.first_error.empty());
  EXPECT(stats.quality.size() == 1 && stats.quality[0].served);
  EXPECT(stats.quality[0].facts.total == 8);
  EXPECT(std::fabs(stats.quality[0].utility_gain_bits -
                   (response->total_utility_bits -
                    item.initial_utility_bits)) < 1e-12);
  // Indented spelling scans the same.
  EXPECT(AcceptFusionResponse(
      item, 200, cf::service::FusionResponseToJson(*response).Dump(2),
      stats));

  // Corrupted: truncated body, wrong status, a nudged utility, a nudged
  // marginal — each is a failed op.
  LaneStats bad;
  EXPECT(!AcceptFusionResponse(item, 200, good.substr(0, good.size() / 2),
                               bad));
  EXPECT(!bad.first_error.empty());
  EXPECT(!AcceptFusionResponse(item, 500, good, bad));
  cf::service::FusionResponse nudged = *response;
  nudged.total_utility_bits *= 1.0 + 1e-9;
  EXPECT(!AcceptFusionResponse(
      item, 200, cf::service::FusionResponseToJson(nudged).Dump(), bad));
  nudged = *response;
  nudged.instances[0].final_marginals[0] += 1e-6;
  EXPECT(!AcceptFusionResponse(
      item, 200, cf::service::FusionResponseToJson(nudged).Dump(), bad));
  nudged = *response;
  nudged.total_cost_spent += 1;
  EXPECT(!AcceptFusionResponse(
      item, 200, cf::service::FusionResponseToJson(nudged).Dump(), bad));

  // Through the loop: every third op is served a corrupted body, and the
  // failed count is exactly those ops, against all ops attempted.
  LaneStats loop_stats;
  int64_t corrupted = 0;
  const LoopResult loop = RunClosedLoop(1, 0.05, [&](int, int64_t i) {
    const bool corrupt = i % 3 == 2;
    corrupted += corrupt ? 1 : 0;
    return AcceptFusionResponse(item, 200,
                                corrupt ? good.substr(0, good.size() - 1)
                                        : std::string(good),
                                loop_stats);
  });
  EXPECT(loop.attempted >= 3);
  EXPECT(loop.failed == corrupted);
  EXPECT(loop.latency_ms.count() == loop.attempted);
}

void TestScanner() {
  const std::string body =
      R"({"session_id": "s-12", "num_instances":1, "done" : true,)"
      R"( "label":"x\"y", "requests_shed": 3})";
  EXPECT(ScanString(body, "session_id").value() == "s-12");
  EXPECT(ScanBool(body, "done").value());
  EXPECT(ScanNumber(body, "requests_shed").value() == 3);
  EXPECT(!ScanNumber(body, "missing").ok());
  // A key spelled inside a string value is not a member.
  EXPECT(!ScanBool(R"({"label": "\"done\""})", "done").ok());
}

void TestSpanSelfTime() {
  SpanRecorder recorder;
  const int root = recorder.Begin("op", 0, -1);
  const int child = recorder.Begin("json.parse", 0, root);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  recorder.End(child);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  recorder.End(root);
  const auto& spans = recorder.spans();
  const int64_t root_ns = spans[0].end_ns - spans[0].start_ns;
  const int64_t child_ns = spans[1].end_ns - spans[1].start_ns;
  const auto self = recorder.SelfTimeByName();
  EXPECT(self.size() == 2);
  EXPECT(self[0].first == "op" && self[0].second == root_ns - child_ns);
  EXPECT(self[1].first == "json.parse" && self[1].second == child_ns);
  EXPECT(self[0].second >= 900000);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestOpenLoopSchedule();
  perfbench::TestLatenessAccounting();
  perfbench::TestPercentileSampleCounts();
  perfbench::TestResponseCheck();
  perfbench::TestScanner();
  perfbench::TestSpanSelfTime();
  std::printf("perfbench self-tests: %d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
