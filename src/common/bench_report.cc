#include "common/bench_report.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "common/json_util.h"
#include "common/string_util.h"

namespace crowdfusion::common {

namespace {

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "null";
  std::string out;
  AppendShortestDouble(out, value);
  return out;
}

/// Reads a measurement member: the writer spells a non-finite value as
/// null, which reads back as NaN. Absent members keep their default.
Status ReadMeasurement(const JsonValue& record, const char* key,
                       double* out) {
  const JsonValue* member = record.Find(key);
  if (member != nullptr && member->is_null()) {
    *out = std::nan("");
    return Status::Ok();
  }
  return JsonReadDouble(record, key, out);
}

/// One element of the "records" array. Integer fields must be JSON
/// integers (null is an error); unknown members are skipped so the format
/// can grow, and fields newer than a file (the v2 serving and load-replay
/// fields) keep their zero defaults.
Result<BenchRecord> ParseRecord(const JsonValue& json) {
  CF_RETURN_IF_ERROR(JsonRequireObject(json, "bench record").status());
  BenchRecord record;
  CF_RETURN_IF_ERROR(JsonReadString(json, "source", &record.source));
  CF_RETURN_IF_ERROR(JsonReadString(json, "config", &record.config));
  CF_RETURN_IF_ERROR(JsonReadInt(json, "n", &record.n));
  CF_RETURN_IF_ERROR(JsonReadInt64(json, "support", &record.support));
  CF_RETURN_IF_ERROR(JsonReadInt(json, "k", &record.k));
  const std::pair<const char*, double*> measurements[] = {
      {"wall_ms", &record.wall_ms},
      {"entropy_bits", &record.entropy_bits},
      {"throughput_per_sec", &record.throughput_per_sec},
      {"p50_ms", &record.p50_ms},
      {"p95_ms", &record.p95_ms},
      {"p99_ms", &record.p99_ms},
      {"p999_ms", &record.p999_ms}};
  for (const auto& [key, field] : measurements) {
    CF_RETURN_IF_ERROR(ReadMeasurement(json, key, field));
  }
  CF_RETURN_IF_ERROR(JsonReadInt64(json, "ok_count", &record.ok_count));
  CF_RETURN_IF_ERROR(JsonReadInt64(json, "err_4xx", &record.err_4xx));
  CF_RETURN_IF_ERROR(JsonReadInt64(json, "err_5xx", &record.err_5xx));
  CF_RETURN_IF_ERROR(
      JsonReadInt64(json, "err_transport", &record.err_transport));
  return record;
}

std::string RecordKey(const BenchRecord& record) {
  return StrFormat("%s|%s|%d|%lld|%d", record.source.c_str(),
                   record.config.c_str(), record.n,
                   static_cast<long long>(record.support), record.k);
}

std::string SerializeRecords(const std::vector<BenchRecord>& records) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"crowdfusion-bench-v2\",\n  \"records\": [";
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"source\": " << JsonEscape(r.source)
       << ", \"config\": " << JsonEscape(r.config)
       << ", \"n\": " << r.n << ", \"support\": " << r.support
       << ", \"k\": " << r.k << ", \"wall_ms\": " << FormatDouble(r.wall_ms)
       << ", \"entropy_bits\": " << FormatDouble(r.entropy_bits);
    // Serving-throughput fields only appear on rows that measured them,
    // keeping selection-kernel rows in the familiar v1 shape.
    if (r.throughput_per_sec != 0.0 || r.p50_ms != 0.0 || r.p95_ms != 0.0) {
      os << ", \"throughput_per_sec\": " << FormatDouble(r.throughput_per_sec)
         << ", \"p50_ms\": " << FormatDouble(r.p50_ms)
         << ", \"p95_ms\": " << FormatDouble(r.p95_ms);
    }
    // Load-replay extensions: tail percentiles and outcome counts only on
    // rows that replayed traffic, so kernel rows keep their shape. A
    // clean run still serializes its zero error counts — "zero 5xx" is a
    // pinned measurement, not an absent field.
    if (r.p99_ms != 0.0 || r.p999_ms != 0.0) {
      os << ", \"p99_ms\": " << FormatDouble(r.p99_ms)
         << ", \"p999_ms\": " << FormatDouble(r.p999_ms);
    }
    if (r.ok_count != 0 || r.err_4xx != 0 || r.err_5xx != 0 ||
        r.err_transport != 0) {
      os << ", \"ok_count\": " << r.ok_count << ", \"err_4xx\": " << r.err_4xx
         << ", \"err_5xx\": " << r.err_5xx
         << ", \"err_transport\": " << r.err_transport;
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream stream(path, std::ios::out | std::ios::trunc);
  if (!stream.is_open()) {
    return Status::NotFound(
        StrFormat("cannot open %s for writing", path.c_str()));
  }
  stream << text;
  stream.flush();
  if (!stream.good()) {
    return Status::Internal(StrFormat("write to %s failed", path.c_str()));
  }
  return Status::Ok();
}

}  // namespace

BenchReport::BenchReport(std::string default_source)
    : default_source_(std::move(default_source)) {}

void BenchReport::Add(BenchRecord record) {
  if (record.source.empty()) record.source = default_source_;
  records_.push_back(std::move(record));
}

std::string BenchReport::ToJson() const { return SerializeRecords(records_); }

Status BenchReport::WriteFile(const std::string& path) const {
  return WriteText(path, ToJson());
}

Status BenchReport::MergeToFile(const std::string& path) const {
  std::vector<BenchRecord> merged;
  auto existing = Load(path);
  if (existing.ok()) {
    merged = std::move(existing).value();
  } else if (existing.status().code() != StatusCode::kNotFound) {
    return existing.status();  // corrupt baseline: refuse to clobber it
  }
  for (const BenchRecord& record : records_) {
    bool replaced = false;
    for (BenchRecord& old : merged) {
      if (RecordKey(old) == RecordKey(record)) {
        old = record;
        replaced = true;
        break;
      }
    }
    if (!replaced) merged.push_back(record);
  }
  return WriteText(path, SerializeRecords(merged));
}

Result<std::vector<BenchRecord>> BenchReport::Load(const std::string& path) {
  std::ifstream stream(path);
  if (!stream.is_open()) {
    return Status::NotFound(StrFormat("no bench report at %s", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  auto document = JsonValue::Parse(buffer.str());
  if (!document.ok()) {
    return Status::InvalidArgument(
        StrFormat("malformed bench report %s: %s", path.c_str(),
                  document.status().ToString().c_str()));
  }
  CF_RETURN_IF_ERROR(JsonRequireObject(*document, "bench report").status());
  std::vector<BenchRecord> records;
  const JsonValue* array = document->Find("records");
  if (array == nullptr) return records;
  if (!array->is_array()) {
    return Status::InvalidArgument("bench report \"records\" is not an array");
  }
  for (const JsonValue& json : array->array()) {
    CF_ASSIGN_OR_RETURN(BenchRecord record, ParseRecord(json));
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace crowdfusion::common
