#include "data/dataset_io.h"

#include <algorithm>
#include <fstream>
#include <map>

#include "common/string_util.h"

namespace crowdfusion::data {

using common::Status;

namespace {

common::Result<StatementCategory> ParseCategory(const std::string& name) {
  static constexpr StatementCategory kAll[] = {
      StatementCategory::kClean,          StatementCategory::kReordered,
      StatementCategory::kAdditionalInfo, StatementCategory::kMisspelling,
      StatementCategory::kWrongAuthor,    StatementCategory::kMissingAuthor};
  for (StatementCategory c : kAll) {
    if (name == StatementCategoryName(c)) return c;
  }
  return Status::InvalidArgument("unknown statement category: " + name);
}

}  // namespace

Status SaveBookDataset(const BookDataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  for (const Book& book : dataset.books) {
    for (size_t i = 0; i < book.statements.size(); ++i) {
      const int vid = book.value_ids[i];
      for (int sid : dataset.claims.value_sources(vid)) {
        out << book.isbn << '\t' << book.title << '\t'
            << dataset.claims.source_name(sid) << '\t'
            << book.statements[i].text << '\t'
            << (book.statements[i].is_true ? 1 : 0) << '\t'
            << StatementCategoryName(book.statements[i].category) << '\n';
      }
    }
  }
  out.close();

  std::ofstream truth(path + ".truth");
  if (!truth.is_open()) {
    return Status::NotFound("cannot open for writing: " + path + ".truth");
  }
  for (const Book& book : dataset.books) {
    truth << book.isbn << '\t'
          << RenderAuthorList(book.true_authors, NameFormat::kFirstLast)
          << '\n';
  }
  return Status::Ok();
}

common::Result<BookDataset> LoadBookDataset(const std::string& path) {
  std::ifstream truth_in(path + ".truth");
  if (!truth_in.is_open()) {
    return Status::NotFound("cannot open: " + path + ".truth");
  }
  std::map<std::string, AuthorList> truth_of_isbn;
  std::vector<std::string> isbn_order;
  std::string line;
  while (std::getline(truth_in, line)) {
    if (line.empty()) continue;
    const auto fields = common::Split(line, '\t');
    if (fields.size() != 2) {
      return Status::InvalidArgument("malformed truth line: " + line);
    }
    truth_of_isbn[fields[0]] =
        ParseAuthorListStatement(fields[1]).authors;
    isbn_order.push_back(fields[0]);
  }

  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open: " + path);

  BookDataset dataset;
  std::map<std::string, int> book_index;
  std::map<std::string, int> source_index;
  for (const std::string& isbn : isbn_order) {
    Book book;
    book.isbn = isbn;
    book.true_authors = truth_of_isbn[isbn];
    book_index[isbn] = static_cast<int>(dataset.books.size());
    dataset.claims.AddEntity();
    dataset.books.push_back(std::move(book));
  }

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = common::Split(line, '\t');
    if (fields.size() != 6) {
      return Status::InvalidArgument("malformed claim line: " + line);
    }
    const auto book_it = book_index.find(fields[0]);
    if (book_it == book_index.end()) {
      return Status::InvalidArgument("claim for unknown isbn: " + fields[0]);
    }
    Book& book = dataset.books[static_cast<size_t>(book_it->second)];
    book.title = fields[1];

    int source_id = 0;
    if (auto it = source_index.find(fields[2]); it != source_index.end()) {
      source_id = it->second;
    } else {
      source_id = dataset.claims.AddSource(fields[2]);
      source_index[fields[2]] = source_id;
      dataset.sources.push_back({fields[2], 0.0, 0.0});
    }

    CF_ASSIGN_OR_RETURN(const int vid,
                        dataset.claims.AddValue(book_it->second, fields[3]));
    CF_RETURN_IF_ERROR(dataset.claims.AddClaim(source_id, vid));

    if (std::find(book.value_ids.begin(), book.value_ids.end(), vid) ==
        book.value_ids.end()) {
      Statement statement;
      statement.text = fields[3];
      statement.is_true = fields[4] == "1";
      CF_ASSIGN_OR_RETURN(statement.category, ParseCategory(fields[5]));
      book.value_ids.push_back(vid);
      book.statements.push_back(std::move(statement));
    }
  }

  dataset.value_truth.assign(static_cast<size_t>(dataset.claims.num_values()),
                             false);
  dataset.value_category.assign(
      static_cast<size_t>(dataset.claims.num_values()),
      StatementCategory::kClean);
  for (const Book& book : dataset.books) {
    for (size_t i = 0; i < book.statements.size(); ++i) {
      dataset.value_truth[static_cast<size_t>(book.value_ids[i])] =
          book.statements[i].is_true;
      dataset.value_category[static_cast<size_t>(book.value_ids[i])] =
          book.statements[i].category;
    }
  }
  return dataset;
}

}  // namespace crowdfusion::data
