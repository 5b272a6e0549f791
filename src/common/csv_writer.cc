#include "common/csv_writer.h"

namespace crowdfusion::common {

Result<CsvWriter> CsvWriter::Open(const std::string& path,
                                  std::vector<std::string> header) {
  std::ofstream stream(path);
  if (!stream.is_open()) {
    return Status::NotFound("cannot open CSV file for writing: " + path);
  }
  CsvWriter writer(std::move(stream), header.size());
  CF_RETURN_IF_ERROR(writer.WriteRow(header));
  return writer;
}

CsvWriter::CsvWriter(std::ofstream stream, size_t num_columns)
    : stream_(std::move(stream)), num_columns_(num_columns) {}

std::string CsvWriter::EscapeField(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

Status CsvWriter::WriteRow(const std::vector<std::string>& row) {
  if (!stream_.is_open()) {
    return Status::FailedPrecondition("CSV writer is closed");
  }
  if (row.size() != num_columns_) {
    return Status::InvalidArgument("CSV row width mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) stream_ << ',';
    stream_ << EscapeField(row[i]);
  }
  stream_ << '\n';
  return Status::Ok();
}

void CsvWriter::Close() {
  if (stream_.is_open()) stream_.close();
}

}  // namespace crowdfusion::common
