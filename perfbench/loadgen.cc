#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "perfbench.h"

namespace perfbench {

namespace {

constexpr double kLowestMs = 1e-3;
const double kLogRatio = std::log(1.002);
const int kBuckets =
    static_cast<int>(std::ceil(std::log(1e6 / kLowestMs) / kLogRatio)) + 1;

double MillisBetween(SteadyClock::time_point from, SteadyClock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

SteadyClock::time_point After(SteadyClock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<SteadyClock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// One lane's histograms, merged into the result after the lanes join.
struct LaneTally {
  Histogram latency;
  Histogram late;
};

LoopResult MergeLanes(const std::vector<LaneTally>& lanes,
                      SteadyClock::time_point start, int64_t failed) {
  LoopResult result;
  result.wall_seconds =
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  for (const LaneTally& lane : lanes) {
    result.latency_ms.Merge(lane.latency);
    result.late_ms.Merge(lane.late);
  }
  result.attempted = result.latency_ms.count();
  result.failed = failed;
  return result;
}

}  // namespace

Histogram::Histogram() : counts_(static_cast<size_t>(kBuckets)) {}

void Histogram::Record(double ms) {
  const int bucket =
      ms <= kLowestMs
          ? 0
          : std::min(kBuckets - 1,
                     static_cast<int>(std::log(ms / kLowestMs) / kLogRatio));
  ++counts_[static_cast<size_t>(bucket)];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::min<int64_t>(
      count_ - 1,
      static_cast<int64_t>(p * static_cast<double>(count_ - 1) + 0.5));
  int64_t below = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (rank < below + counts_[i]) {
      const double within = (static_cast<double>(rank - below) + 0.5) /
                            static_cast<double>(counts_[i]);
      return kLowestMs *
             std::exp((static_cast<double>(i) + within) * kLogRatio);
    }
    below += counts_[i];
  }
  return kLowestMs * std::exp(static_cast<double>(kBuckets) * kLogRatio);
}

LoopResult RunOpenLoop(int lanes, double rate, double seconds,
                       const OpFn& op) {
  const auto total = static_cast<int64_t>(std::ceil(seconds * rate));
  std::vector<LaneTally> tallies(static_cast<size_t>(lanes));
  std::atomic<int64_t> failed{0};
  // A short lead so every lane is asleep before op 0 is due.
  const SteadyClock::time_point start =
      SteadyClock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> threads;
  for (int lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      LaneTally& tally = tallies[static_cast<size_t>(lane)];
      for (int64_t i = lane; i < total; i += lanes) {
        const auto due = After(start, ScheduledOffsetSeconds(i, rate));
        std::this_thread::sleep_until(due);
        tally.late.Record(
            std::max(0.0, MillisBetween(due, SteadyClock::now())));
        const bool ok = op(lane, i);
        if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
        tally.latency.Record(ok ? MillisBetween(due, SteadyClock::now())
                                : kMissLatencyMs);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return MergeLanes(tallies, start, failed.load());
}

LoopResult RunClosedLoop(int callers, double seconds, const OpFn& op) {
  std::vector<LaneTally> tallies(static_cast<size_t>(callers));
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> failed{0};
  const SteadyClock::time_point start = SteadyClock::now();
  const SteadyClock::time_point deadline = After(start, seconds);
  std::vector<std::thread> threads;
  for (int lane = 0; lane < callers; ++lane) {
    threads.emplace_back([&, lane] {
      LaneTally& tally = tallies[static_cast<size_t>(lane)];
      while (SteadyClock::now() < deadline) {
        const SteadyClock::time_point sent = SteadyClock::now();
        const bool ok = op(lane, next.fetch_add(1));
        if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
        tally.latency.Record(ok ? MillisBetween(sent, SteadyClock::now())
                                : kMissLatencyMs);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return MergeLanes(tallies, start, failed.load());
}

LatencySummary Summarize(const Histogram& histogram) {
  LatencySummary summary;
  summary.samples = histogram.count();
  summary.p50 = histogram.Percentile(0.50);
  summary.p95 = histogram.Percentile(0.95);
  if (summary.samples > 0) {
    summary.beyond_p95 =
        summary.samples - 1 -
        static_cast<int64_t>(0.95 * static_cast<double>(summary.samples - 1) +
                             0.5);
  }
  return summary;
}

}  // namespace perfbench
