#include "common/table_printer.h"

#include <algorithm>
#include <iomanip>

#include "common/logging.h"

namespace crowdfusion::common {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  CF_CHECK(row.size() == header_.size())
      << "row has " << row.size() << " cells, header has " << header_.size();
  rows_.push_back(std::move(row));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (size_t c = 0; c < row.size(); ++c) {
      os << " " << std::setw(static_cast<int>(widths[c])) << std::left
         << row[c] << " |";
    }
    os << "\n";
  };
  auto print_rule = [&] {
    os << "+";
    for (size_t c = 0; c < widths.size(); ++c) {
      os << std::string(widths[c] + 2, '-') << "+";
    }
    os << "\n";
  };
  print_rule();
  print_row(header_);
  print_rule();
  for (const auto& row : rows_) print_row(row);
  print_rule();
}

}  // namespace crowdfusion::common
