#ifndef CROWDFUSION_COMMON_TABLE_PRINTER_H_
#define CROWDFUSION_COMMON_TABLE_PRINTER_H_

#include <ostream>
#include <string>
#include <vector>

namespace crowdfusion::common {

/// Prints aligned ASCII tables, used by the benchmark harnesses to emit the
/// same rows the paper's tables and figure series report.
///
///   TablePrinter t({"k", "OPT", "Approx."});
///   t.AddRow({"1", "37.78", "32.60"});
///   t.Print(std::cout);
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  void Print(std::ostream& os) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace crowdfusion::common

#endif  // CROWDFUSION_COMMON_TABLE_PRINTER_H_
