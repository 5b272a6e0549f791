#ifndef CROWDFUSION_DATA_STATEMENT_H_
#define CROWDFUSION_DATA_STATEMENT_H_

#include <string>

#include "data/author.h"

namespace crowdfusion::data {

/// Error taxonomy of author-list statements, following the paper's error
/// analysis (Section V-D). The ground-truth rules are the paper's:
///  * a reordered author list is still TRUE ("Wrong Order" confuses the
///    crowd but does not make a statement false);
///  * appended organization/publisher info makes a statement FALSE;
///  * a misspelled name makes a statement FALSE;
///  * wrong or missing authors make a statement FALSE.
enum class StatementCategory {
  kClean = 0,       // true, canonical order
  kReordered,       // true, non-canonical order ("Wrong Order")
  kAdditionalInfo,  // false: "(SAN JOSE STATE UNIVERSITY, USA)" style tail
  kMisspelling,     // false: one edited character in a name
  kWrongAuthor,     // false: an author replaced by someone else
  kMissingAuthor,   // false: an author dropped
};

/// Display name ("Clean", "Reordered", ...).
const char* StatementCategoryName(StatementCategory category);

/// One author-list statement about a book, as claimed by sources.
struct Statement {
  std::string text;
  StatementCategory category = StatementCategory::kClean;
  /// Ground-truth label (redundant with category; kept explicit so the
  /// independent labeler can be cross-checked against generation).
  bool is_true = true;
};

/// The independent ground-truth labeler: decides a statement's truth from
/// its text and the book's true author list alone (the rule used to label
/// the real dataset's gold standard). Returns true iff the statement's
/// parsed author multiset equals the true list exactly (order- and
/// case-insensitive) and the statement carries no annotation.
bool LabelStatement(const std::string& text, const AuthorList& true_authors);

}  // namespace crowdfusion::data

#endif  // CROWDFUSION_DATA_STATEMENT_H_
