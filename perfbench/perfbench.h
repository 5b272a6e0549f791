#ifndef CROWDFUSION_PERFBENCH_PERFBENCH_H_
#define CROWDFUSION_PERFBENCH_PERFBENCH_H_

/// The repository benchmark: shared declarations of the workload pools,
/// the served-response check, the load generator and the span recorder.
/// main.cc wires them into one run; selftest.cc pins their accounting.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "service/fusion_service.h"

namespace perfbench {

namespace cf = crowdfusion;

/// Latency histogram, ms, with 0.2%-wide logarithmic buckets from 1 us to
/// 1000 s. Its memory is fixed however many ops a run makes, so the
/// benchmark's own bookkeeping does not grow the peak RSS it reports.
/// One writer per instance; Merge after the writers are done.
class Histogram {
 public:
  Histogram();
  void Record(double ms);
  void Merge(const Histogram& other);
  int64_t count() const { return count_; }
  /// The sample at zero-based rank floor(p * (count - 1) + 0.5), as
  /// common::PercentileOfSorted picks it, placed inside its bucket by
  /// rank; 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<uint32_t> counts_;
  int64_t count_ = 0;
};

// --------------------------------------------------------------------------
// Workloads and their seeded request pools (workloads.cc)
// --------------------------------------------------------------------------

/// One op is one POST /v1/fusion:run (kRun) or one whole session
/// conversation: create, step until done, result, delete (kSession).
enum class OpKind { kRun, kSession };

/// Phase A's open loop sends over this many connections.
inline constexpr int kOpenConnections = 4;

struct WorkloadConfig {
  std::string name;
  OpKind kind = OpKind::kRun;
  int pool_size = 0;
  /// Phase A: an open loop at this many ops/s. 0 = the workload has no
  /// open-loop phase (session-crowd).
  double open_rate = 0.0;
  /// Phase B, which the end-to-end latency and throughput come from: a
  /// closed loop with this many callers (the whole run for session-crowd).
  int closed_callers = 2;
};

/// "run-small", "run-books" or "session-crowd".
cf::common::Result<WorkloadConfig> FindWorkload(const std::string& name);

/// What a served response must reproduce: the in-process
/// FusionService::Run result of the same request.
struct Expected {
  int total_cost_spent = 0;
  double total_utility_bits = 0.0;
  std::vector<double> instance_utility_bits;
  std::vector<std::vector<double>> final_marginals;
};
Expected ExpectedFromResponse(const cf::service::FusionResponse& response);

struct PoolItem {
  /// Position in the pool.
  size_t index = 0;
  /// The typed request, for the in-process reference run.
  cf::service::FusionRequest request;
  /// Compact JSON body the server receives.
  std::string body;
  /// The whole HTTP/1.1 request (head + body), for the traced parse.
  std::string framed;
  /// Gold labels per instance, for accuracy.
  std::vector<std::vector<bool>> truths;
  /// Q(F) = -H(F) of the starting joints, summed over instances.
  double initial_utility_bits = 0.0;
  Expected expected;
};

/// Generates the workload's pool from `seed`. Session workloads point
/// their "http" provider at `crowd_endpoint`. Truths and starting
/// utilities come from FusionService::MaterializeWorkload.
cf::common::Result<std::vector<PoolItem>> BuildPool(
    const WorkloadConfig& config, uint64_t seed,
    const std::string& crowd_endpoint,
    const cf::service::FusionService& service);

/// Fills every item's `expected` with FusionService::Run on its request,
/// spread over `threads` threads.
cf::common::Status ComputeExpected(std::vector<PoolItem>* pool,
                                   const cf::service::FusionService& service,
                                   int threads);

// --------------------------------------------------------------------------
// Served-response check (check.cc)
// --------------------------------------------------------------------------

/// The fields of a crowdfusion-response-v1 body the check needs, pulled
/// out by a key scanner rather than a JSON tree: the client must not spend
/// the codec time it is there to measure on the server.
struct Observed {
  int total_cost_spent = 0;
  double total_utility_bits = 0.0;
  std::vector<double> instance_utility_bits;
  std::vector<std::vector<double>> final_marginals;
  /// latency_seconds of every step outcome with instance >= 0.
  std::vector<double> step_latency_seconds;
};
cf::common::Result<Observed> ScanFusionResponse(std::string_view body);

/// Empty when `observed` reproduces `expected`: total cost exactly,
/// utilities and final marginals within 1e-12 relative. Otherwise the
/// first difference, in words.
std::string CompareToExpected(const Observed& observed,
                              const Expected& expected);

/// Facts whose final marginal lies on the side of their gold label.
struct FactTally {
  int64_t correct = 0;
  int64_t total = 0;
};
FactTally TallyAccuracy(const Observed& observed,
                        const std::vector<std::vector<bool>>& truths);

/// Client-side tallies of one lane (connection or caller) over a phase.
struct LaneStats {
  int64_t ops_ok = 0;
  /// Quality of each pool item this lane served and checked, indexed by
  /// PoolItem::index. Every served copy of an item must equal its
  /// reference, so one record per item suffices and the run's quality
  /// figures depend on the seed alone, not on how often each item came up.
  struct ItemQuality {
    bool served = false;
    /// Final minus starting Q(F).
    double utility_gain_bits = 0.0;
    FactTally facts;
  };
  std::vector<ItemQuality> quality;
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  /// Client-observed time of every HTTP call.
  Histogram call_ms;
  /// Session ops: merged crowd tickets, their latencies, and session wall
  /// minus the sum of those latencies.
  int64_t tickets_merged = 0;
  std::vector<double> crowd_latency_ms;
  std::vector<double> session_overhead_ms;
  /// Why the first failed op of this lane failed.
  std::string first_error;
};

/// The served-response check of one op: status 200, a body that scans,
/// and a result equal to `item.expected`. On success records the item's
/// quality and crowd latencies in `stats` and returns true; otherwise
/// records why in stats.first_error and returns false (a failed op).
bool AcceptFusionResponse(const PoolItem& item, int status_code,
                          std::string_view body, LaneStats& stats);

/// Scalar member lookups on a small JSON object body (session ids, the
/// step "done" flag, /metricsz counters). The first member named `key`.
cf::common::Result<std::string> ScanString(std::string_view body,
                                           std::string_view key);
cf::common::Result<bool> ScanBool(std::string_view body,
                                  std::string_view key);
cf::common::Result<double> ScanNumber(std::string_view body,
                                      std::string_view key);

// --------------------------------------------------------------------------
// Load generation (loadgen.cc)
// --------------------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;

/// Runs op `op_index` on connection/caller `lane`; true when the op
/// completed and its output checked.
using OpFn = std::function<bool(int lane, int64_t op_index)>;

/// Send time of op `i` of an open loop at `rate` ops/s, in seconds after
/// the loop starts.
inline double ScheduledOffsetSeconds(int64_t i, double rate) {
  return static_cast<double>(i) / rate;
}

struct LoopResult {
  /// Open loop: from each op's scheduled send; closed loop: from its
  /// actual send. A failed op is recorded as a miss (kMissLatencyMs), so
  /// it lands beyond every percentile it can reach.
  Histogram latency_ms;
  /// Open loop only: actual minus scheduled send.
  Histogram late_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_seconds = 0.0;
};
inline constexpr double kMissLatencyMs = 1.0e6;

/// Open loop: op i is due at ScheduledOffsetSeconds(i, rate) and is sent
/// on lane i % lanes, one blocking call at a time per lane; ops due in
/// [0, seconds) are sent.
LoopResult RunOpenLoop(int lanes, double rate, double seconds, const OpFn& op);

/// Closed loop: `callers` lanes each send their next op when the previous
/// one completes, until `seconds` have passed. Op indices are shared.
LoopResult RunClosedLoop(int callers, double seconds, const OpFn& op);

struct LatencySummary {
  int64_t samples = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  /// Samples ranked above the p95 one: the tail the p95 rests on.
  int64_t beyond_p95 = 0;
};
LatencySummary Summarize(const Histogram& histogram);

// --------------------------------------------------------------------------
// Spans (trace.cc)
// --------------------------------------------------------------------------

/// In-memory span log of the traced pass. Begin/End wrap one call into a
/// public function of a layer; spans of one op share `op`.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    int64_t op = 0;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  int Begin(const char* name, int64_t op, int parent);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed self time (duration minus the part covered by
  /// child spans), ns.
  std::vector<std::pair<std::string, int64_t>> SelfTimeByName() const;

  /// Writes one JSON object per span, one per line.
  cf::common::Status WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  SteadyClock::time_point epoch_ = SteadyClock::now();
};

}  // namespace perfbench

#endif  // CROWDFUSION_PERFBENCH_PERFBENCH_H_
