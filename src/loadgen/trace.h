#ifndef CROWDFUSION_LOADGEN_TRACE_H_
#define CROWDFUSION_LOADGEN_TRACE_H_

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace crowdfusion::loadgen {

/// Versioned JSONL request-trace format — the capture/replay substrate of
/// the load-replay harness (ROADMAP item "Offline bulk-fusion pipeline +
/// load-replay harness"). A trace file is one header line followed by one
/// record per line:
///
///   {"schema": "crowdfusion-trace-v1"}
///   {"t": 0, "method": "GET", "target": "/healthz"}
///   {"t": 0.004, "method": "POST", "target": "/v1/fusion:run",
///    "body": "{...}"}
///
/// `t` is seconds relative to the first recorded request (finite, >= 0,
/// non-decreasing down the file), `method` one of GET/POST/DELETE/PUT,
/// `target` an origin-form path, `body` an optional opaque string (for
/// this repo's wire: serialized request JSON). Parsing is strict in the
/// request_json style: wrong types and unknown keys are
/// kInvalidArgument naming the key, truncation/corruption never crashes
/// (fuzz-pinned).

inline constexpr const char* kTraceSchema = "crowdfusion-trace-v1";

struct TraceRecord {
  /// Seconds since the first request of the trace.
  double t = 0.0;
  std::string method = "GET";
  std::string target;
  std::string body;

  friend bool operator==(const TraceRecord& a,
                         const TraceRecord& b) = default;
};

struct Trace {
  std::vector<TraceRecord> records;

  /// Recorded span: t of the last record (0 for <= 1 record).
  double SpanSeconds() const {
    return records.empty() ? 0.0 : records.back().t;
  }

  friend bool operator==(const Trace& a, const Trace& b) = default;
};

/// One compact line, no trailing newline.
std::string SerializeTraceHeader();
std::string SerializeTraceRecord(const TraceRecord& record);

common::Result<TraceRecord> ParseTraceRecord(const std::string& line);

/// Parses a whole trace (header line + records; blank lines are
/// skipped). Errors name the offending 1-based line.
common::Result<Trace> ParseTrace(std::istream& in);
common::Result<Trace> LoadTraceFile(const std::string& path);
common::Status SaveTraceFile(const Trace& trace, const std::string& path);

/// Append-only trace capture, the `serve --record-trace` hook: thread-safe
/// (HTTP handlers record concurrently), timestamps relative to the FIRST
/// recorded request (a server that idles before traffic does not bake the
/// idle gap into the trace), one flushed line per request so a kill -9
/// loses at most the in-flight line.
class TraceRecorder {
 public:
  /// Truncates `path` and writes the header. `clock` nullptr means
  /// Clock::Real(); borrowed.
  static common::Result<std::unique_ptr<TraceRecorder>> Open(
      const std::string& path, common::Clock* clock = nullptr);

  void Record(const std::string& method, const std::string& target,
              const std::string& body);

  int64_t records_written() const;

 private:
  TraceRecorder(std::ofstream out, common::Clock* clock);

  mutable std::mutex mutex_;
  std::ofstream out_;
  common::Clock* clock_;
  bool have_epoch_ = false;
  double epoch_seconds_ = 0.0;
  double last_t_ = 0.0;
  int64_t records_written_ = 0;
};

/// Deterministic synthetic traces, so the soak gate and the pipe bench
/// need no recorded traffic to run.
struct SyntheticTraceOptions {
  int num_records = 64;
  /// Request spacing: record i carries t = i / qps.
  double qps = 100.0;
  /// Every healthz_every-th record is a GET /healthz probe (0 = none);
  /// the rest are small scripted-provider POST /v1/fusion:run bodies.
  int healthz_every = 8;
  /// Facts per fusion request (joint size 2^facts — keep small).
  int facts = 4;
  int budget_per_instance = 2;
  uint64_t seed = 7;
};
Trace MakeSyntheticTrace(const SyntheticTraceOptions& options);

}  // namespace crowdfusion::loadgen

#endif  // CROWDFUSION_LOADGEN_TRACE_H_
