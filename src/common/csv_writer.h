#ifndef CROWDFUSION_COMMON_CSV_WRITER_H_
#define CROWDFUSION_COMMON_CSV_WRITER_H_

#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"

namespace crowdfusion::common {

/// Minimal CSV emitter used by benchmark harnesses to dump figure series
/// (cost, F1, utility) for external plotting. Fields containing commas or
/// quotes are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  static Result<CsvWriter> Open(const std::string& path,
                                std::vector<std::string> header);

  CsvWriter(CsvWriter&&) = default;
  CsvWriter& operator=(CsvWriter&&) = default;

  Status WriteRow(const std::vector<std::string>& row);

  /// Flushes and closes; further writes fail.
  void Close();

 private:
  CsvWriter(std::ofstream stream, size_t num_columns);

  static std::string EscapeField(const std::string& field);

  std::ofstream stream_;
  size_t num_columns_;
};

}  // namespace crowdfusion::common

#endif  // CROWDFUSION_COMMON_CSV_WRITER_H_
