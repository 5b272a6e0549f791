#include "data/statement.h"

namespace crowdfusion::data {

const char* StatementCategoryName(StatementCategory category) {
  switch (category) {
    case StatementCategory::kClean:
      return "Clean";
    case StatementCategory::kReordered:
      return "Reordered";
    case StatementCategory::kAdditionalInfo:
      return "AdditionalInfo";
    case StatementCategory::kMisspelling:
      return "Misspelling";
    case StatementCategory::kWrongAuthor:
      return "WrongAuthor";
    case StatementCategory::kMissingAuthor:
      return "MissingAuthor";
  }
  return "Unknown";
}

bool LabelStatement(const std::string& text, const AuthorList& true_authors) {
  const ParsedStatement parsed = ParseAuthorListStatement(text);
  if (parsed.has_annotation) return false;
  return SameAuthors(parsed.authors, true_authors);
}

}  // namespace crowdfusion::data
