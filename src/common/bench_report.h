#ifndef CROWDFUSION_COMMON_BENCH_REPORT_H_
#define CROWDFUSION_COMMON_BENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace crowdfusion::common {

/// One benchmark measurement: a selector (or kernel) configuration run on
/// an instance of n facts with |O| support outputs, taking wall_ms and
/// selecting a k-task set of entropy entropy_bits. This is the repo's perf
/// baseline schema (BENCH_*.json).
struct BenchRecord {
  /// Emitting binary, e.g. "bench_table5_runtime".
  std::string source;
  /// Configuration label, e.g. "Approx.&Prune&Pre.[sparse]".
  std::string config;
  /// Fact count n.
  int n = 0;
  /// Support size |O|.
  int64_t support = 0;
  /// Tasks selected (k).
  int k = 0;
  /// Average wall-clock time of one selection round, milliseconds.
  double wall_ms = 0.0;
  /// H(T) of the selected set, bits.
  double entropy_bits = 0.0;
  /// Serving-throughput rows (bench_service_throughput): completed units
  /// (books) per wall-clock second. 0 for selection-kernel rows.
  double throughput_per_sec = 0.0;
  /// Median scheduling-step latency, milliseconds. 0 when not measured.
  double p50_ms = 0.0;
  /// 95th-percentile scheduling-step latency, milliseconds.
  double p95_ms = 0.0;
  /// Load-replay tail percentiles (crowdfusion_loadgen rows), ms. 0 when
  /// not measured.
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  /// Load-replay outcome counts by class: 2xx/3xx responses, HTTP
  /// errors, and requests that never got a response. All 0 for rows that
  /// do not replay traffic; the error fields are meaningful (and
  /// serialized) whenever ok_count or any error is nonzero, so a clean
  /// soak row pins its zeros.
  int64_t ok_count = 0;
  int64_t err_4xx = 0;
  int64_t err_5xx = 0;
  int64_t err_transport = 0;

  friend bool operator==(const BenchRecord& a, const BenchRecord& b) = default;
};

/// JSON emitter for benchmark baselines, read back through
/// common::JsonValue. A report file looks like
///
///   {
///     "schema": "crowdfusion-bench-v2",
///     "records": [
///       {"source": "bench_table5_runtime", "config": "Approx.&Pre.",
///        "n": 14, "support": 16384, "k": 5, "wall_ms": 1.25,
///        "entropy_bits": 4.31},
///       ...
///     ]
///   }
///
/// MergeToFile lets several bench binaries share one baseline file: the
/// existing file is loaded (it only needs to match the schema above) and
/// records with the same
/// (source, config, n, support, k) key are replaced, so re-running a bench
/// refreshes its own rows without clobbering the others'.
class BenchReport {
 public:
  /// `default_source` stamps records added without an explicit source.
  explicit BenchReport(std::string default_source);

  void Add(BenchRecord record);

  const std::vector<BenchRecord>& records() const { return records_; }

  /// Loads `path` if present, merges this report's records over it (match
  /// on source+config+n+support+k), and writes the result back.
  Status MergeToFile(const std::string& path) const;

  /// Parses a report file produced by MergeToFile. A missing
  /// file is NotFound; a malformed one is InvalidArgument.
  static Result<std::vector<BenchRecord>> Load(const std::string& path);

 private:
  std::string default_source_;
  std::vector<BenchRecord> records_;
};

}  // namespace crowdfusion::common

#endif  // CROWDFUSION_COMMON_BENCH_REPORT_H_
