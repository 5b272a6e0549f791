#include "data/book_dataset.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace crowdfusion::data {

using common::Rng;
using common::Status;

namespace {

constexpr const char* kFirstNames[] = {
    "James",  "Mary",   "Robert", "Patricia", "John",   "Jennifer",
    "Michael", "Linda",  "David",  "Elizabeth", "William", "Barbara",
    "Richard", "Susan",  "Joseph", "Jessica",  "Thomas",  "Sarah",
    "Charles", "Karen",  "Daniel", "Lisa",     "Matthew", "Nancy",
    "Anthony", "Betty",  "Mark",   "Margaret", "Donald",  "Sandra",
    "Steven",  "Ashley", "Paul",   "Kimberly", "Andrew",  "Emily",
    "Joshua",  "Donna",  "Kenneth", "Michelle"};

constexpr const char* kLastNames[] = {
    "Smith",   "Johnson",  "Williams", "Brown",    "Jones",    "Garcia",
    "Miller",  "Davis",    "Rodriguez", "Martinez", "Hernandez", "Lopez",
    "Gonzalez", "Wilson",  "Anderson", "Thomas",   "Taylor",   "Moore",
    "Jackson", "Martin",   "Lee",      "Perez",    "Thompson", "White",
    "Harris",  "Sanchez",  "Clark",    "Ramirez",  "Lewis",    "Robinson",
    "Walker",  "Young",    "Allen",    "King",     "Wright",   "Scott",
    "Torres",  "Nguyen",   "Hill",     "Flores",   "Green",    "Adams",
    "Nelson",  "Baker",    "Hall",     "Rivera",   "Campbell", "Mitchell",
    "Carter",  "Roberts",  "Loshin",   "Rucker",   "Courage",  "Baxter",
    "Scollard", "Kernighan", "Ritchie", "Stroustrup", "Knuth",  "Cormen"};

constexpr const char* kTextbookTopics[] = {
    "Algorithms", "Databases", "Operating Systems", "Networks",
    "Compilers", "Statistics", "Linear Algebra", "Machine Learning"};

constexpr const char* kTradeTopics[] = {
    "the World Wide Web", "Digital Photography", "Home Cooking",
    "Travel in Asia", "Personal Finance", "Gardening", "Chess",
    "Science Fiction"};

constexpr const char* kOrganizations[] = {
    "SAN JOSE STATE UNIVERSITY, USA", "MIT PRESS", "OXFORD UNIVERSITY, UK",
    "ACME PUBLISHING GROUP", "HKUST, HONG KONG"};

constexpr NameFormat kFormats[] = {NameFormat::kFirstLast,
                                   NameFormat::kLastCommaFirst,
                                   NameFormat::kAllCapsLastCommaFirst};

AuthorName RandomAuthor(Rng& rng) {
  return AuthorName{
      kFirstNames[rng.NextBounded(std::size(kFirstNames))],
      kLastNames[rng.NextBounded(std::size(kLastNames))]};
}

/// One-character edit in the last name (the Loshin -> "Loshin, Peter" /
/// "Pete" class of error is modeled as a character-level misspelling).
AuthorList MisspellOneAuthor(AuthorList authors, Rng& rng) {
  AuthorName& victim =
      authors[rng.NextBounded(static_cast<uint64_t>(authors.size()))];
  std::string& name = victim.last.size() > 2 ? victim.last : victim.first;
  if (name.empty()) {
    name.push_back('x');
    return authors;
  }
  const size_t pos = 1 + rng.NextBounded(static_cast<uint64_t>(
                             name.size() - 1 > 0 ? name.size() - 1 : 1));
  switch (rng.NextBounded(3)) {
    case 0:  // substitute
      name[pos % name.size()] =
          static_cast<char>('a' + rng.NextBounded(26));
      break;
    case 1:  // insert
      name.insert(pos % (name.size() + 1), 1,
                  static_cast<char>('a' + rng.NextBounded(26)));
      break;
    default:  // delete
      name.erase(pos % name.size(), 1);
      break;
  }
  return authors;
}

/// A distinct true-variant statement: random format, possibly reordered.
Statement MakeTrueStatement(const AuthorList& authors, double reorder_prob,
                            Rng& rng) {
  Statement statement;
  AuthorList rendered = authors;
  bool reordered = false;
  if (authors.size() > 1 && rng.NextBernoulli(reorder_prob)) {
    // Shuffle until the order differs from canonical.
    for (int attempt = 0; attempt < 8 && !reordered; ++attempt) {
      rng.Shuffle(rendered);
      reordered = !(rendered == authors);
    }
  }
  statement.category = reordered ? StatementCategory::kReordered
                                 : StatementCategory::kClean;
  statement.is_true = true;
  statement.text = RenderAuthorList(
      rendered, kFormats[rng.NextBounded(std::size(kFormats))]);
  return statement;
}

Statement MakeFalseStatement(const AuthorList& authors,
                             const BookDatasetOptions& options, Rng& rng) {
  Statement statement;
  statement.is_true = false;
  const int category = rng.SampleDiscrete(
      {options.weight_additional_info, options.weight_misspelling,
       options.weight_wrong_author, options.weight_missing_author});
  const NameFormat format = kFormats[rng.NextBounded(std::size(kFormats))];
  switch (category) {
    case 0: {
      statement.category = StatementCategory::kAdditionalInfo;
      statement.text =
          RenderAuthorList(authors, format) + " (" +
          kOrganizations[rng.NextBounded(std::size(kOrganizations))] + ")";
      break;
    }
    case 1: {
      statement.category = StatementCategory::kMisspelling;
      statement.text =
          RenderAuthorList(MisspellOneAuthor(authors, rng), format);
      break;
    }
    case 2: {
      statement.category = StatementCategory::kWrongAuthor;
      AuthorList wrong = authors;
      wrong[rng.NextBounded(static_cast<uint64_t>(wrong.size()))] =
          RandomAuthor(rng);
      statement.text = RenderAuthorList(wrong, format);
      break;
    }
    default: {
      statement.category = StatementCategory::kMissingAuthor;
      AuthorList fewer = authors;
      if (fewer.size() > 1) {
        fewer.erase(fewer.begin() +
                    static_cast<long>(rng.NextBounded(
                        static_cast<uint64_t>(fewer.size()))));
      } else {
        // Single-author book: "missing author" degenerates to an empty
        // list; replace with a wrong author instead.
        statement.category = StatementCategory::kWrongAuthor;
        fewer[0] = RandomAuthor(rng);
      }
      statement.text = RenderAuthorList(fewer, format);
      break;
    }
  }
  return statement;
}

}  // namespace

double BookDataset::FractionTrueClaims() const {
  int64_t true_claims = 0;
  int64_t total_claims = 0;
  for (const Book& book : books) {
    for (size_t i = 0; i < book.statements.size(); ++i) {
      const int vid = book.value_ids[i];
      const int64_t copies =
          static_cast<int64_t>(claims.value_sources(vid).size());
      total_claims += copies;
      if (book.statements[i].is_true) true_claims += copies;
    }
  }
  return total_claims == 0
             ? 0.0
             : static_cast<double>(true_claims) /
                   static_cast<double>(total_claims);
}

common::Result<BookDataset> GenerateBookDataset(
    const BookDatasetOptions& options) {
  if (options.num_books <= 0 || options.num_sources <= 0) {
    return Status::InvalidArgument("need at least one book and one source");
  }
  if (options.min_authors < 1 || options.max_authors < options.min_authors) {
    return Status::InvalidArgument("invalid author count range");
  }
  if (options.true_variants < 1 || options.false_variants < 1) {
    return Status::InvalidArgument(
        "need at least one true and one false variant per book");
  }
  if (options.coverage <= 0.0 || options.coverage > 1.0) {
    return Status::InvalidArgument("coverage must be in (0, 1]");
  }

  Rng rng(options.seed);
  BookDataset dataset;
  dataset.options = options;

  // Sources with domain-dependent reliability.
  for (int s = 0; s < options.num_sources; ++s) {
    SourceProfile profile;
    profile.name = common::StrFormat("bookstore_%02d.example.com", s);
    const double strong = rng.NextUniform(options.strong_accuracy_low,
                                          options.strong_accuracy_high);
    if (rng.NextBernoulli(options.skewed_source_fraction)) {
      const double weak = rng.NextUniform(options.weak_accuracy_low,
                                          options.weak_accuracy_high);
      const bool strong_on_textbooks = rng.NextBernoulli(0.5);
      profile.accuracy_textbook = strong_on_textbooks ? strong : weak;
      profile.accuracy_non_textbook = strong_on_textbooks ? weak : strong;
    } else {
      profile.accuracy_textbook = strong;
      profile.accuracy_non_textbook = strong;
    }
    dataset.sources.push_back(profile);
    dataset.claims.AddSource(profile.name);
  }

  // Books, statement pools, and claims.
  for (int b = 0; b < options.num_books; ++b) {
    Book book;
    book.is_textbook = rng.NextBernoulli(options.textbook_fraction);
    const char* topic =
        book.is_textbook
            ? kTextbookTopics[rng.NextBounded(std::size(kTextbookTopics))]
            : kTradeTopics[rng.NextBounded(std::size(kTradeTopics))];
    book.title = common::StrFormat("%s %s, Vol. %d",
                                   book.is_textbook ? "Introduction to"
                                                    : "A Guide to",
                                   topic, b + 1);
    book.isbn = common::StrFormat("97800%05d", b);
    const int num_authors = static_cast<int>(
        rng.NextInt(options.min_authors, options.max_authors));
    while (static_cast<int>(book.true_authors.size()) < num_authors) {
      AuthorName candidate = RandomAuthor(rng);
      if (std::find(book.true_authors.begin(), book.true_authors.end(),
                    candidate) == book.true_authors.end()) {
        book.true_authors.push_back(std::move(candidate));
      }
    }

    // Shared statement pools: erring sources copy from the same false
    // variants, so false values accumulate support like on the real Web.
    std::vector<Statement> true_pool;
    for (int i = 0; i < options.true_variants; ++i) {
      const Statement s = MakeTrueStatement(
          book.true_authors, i == 0 ? 0.0 : options.reorder_fraction, rng);
      if (std::none_of(true_pool.begin(), true_pool.end(),
                       [&](const Statement& t) { return t.text == s.text; })) {
        true_pool.push_back(s);
      }
    }
    std::vector<Statement> false_pool;
    for (int i = 0; i < options.false_variants * 2 &&
                    static_cast<int>(false_pool.size()) <
                        options.false_variants;
         ++i) {
      Statement s = MakeFalseStatement(book.true_authors, options, rng);
      // Guard against corruption accidentally producing a true statement
      // (e.g. a misspelling that undoes itself).
      s.is_true = LabelStatement(s.text, book.true_authors);
      if (s.is_true) continue;
      if (std::none_of(false_pool.begin(), false_pool.end(),
                       [&](const Statement& t) { return t.text == s.text; })) {
        false_pool.push_back(std::move(s));
      }
    }
    if (false_pool.empty()) {
      Statement s;
      s.category = StatementCategory::kWrongAuthor;
      AuthorList wrong = book.true_authors;
      wrong[0] = AuthorName{"Nemo", "Nobody"};
      s.text = RenderAuthorList(wrong, NameFormat::kFirstLast);
      s.is_true = false;
      false_pool.push_back(std::move(s));
    }

    const int entity = dataset.claims.AddEntity();
    CF_CHECK(entity == b);

    // Sources claim statements.
    for (int s = 0; s < options.num_sources; ++s) {
      if (!rng.NextBernoulli(options.coverage)) continue;
      const SourceProfile& profile = dataset.sources[static_cast<size_t>(s)];
      const double accuracy = book.is_textbook
                                  ? profile.accuracy_textbook
                                  : profile.accuracy_non_textbook;
      const std::vector<Statement>& pool =
          rng.NextBernoulli(accuracy) ? true_pool : false_pool;
      const Statement& statement =
          pool[rng.NextBounded(static_cast<uint64_t>(pool.size()))];
      CF_ASSIGN_OR_RETURN(const int vid,
                          dataset.claims.AddValue(entity, statement.text));
      CF_RETURN_IF_ERROR(dataset.claims.AddClaim(s, vid));
      // Track the statement if it is new to this book.
      if (std::find(book.value_ids.begin(), book.value_ids.end(), vid) ==
          book.value_ids.end()) {
        book.value_ids.push_back(vid);
        book.statements.push_back(statement);
      }
    }
    dataset.books.push_back(std::move(book));
  }

  // Global ground-truth arrays, cross-checked with the independent labeler.
  dataset.value_truth.assign(static_cast<size_t>(dataset.claims.num_values()),
                             false);
  dataset.value_category.assign(
      static_cast<size_t>(dataset.claims.num_values()),
      StatementCategory::kClean);
  for (const Book& book : dataset.books) {
    for (size_t i = 0; i < book.statements.size(); ++i) {
      const int vid = book.value_ids[i];
      const bool labeled =
          LabelStatement(book.statements[i].text, book.true_authors);
      CF_CHECK(labeled == book.statements[i].is_true)
          << "label mismatch for statement: " << book.statements[i].text;
      dataset.value_truth[static_cast<size_t>(vid)] = labeled;
      dataset.value_category[static_cast<size_t>(vid)] =
          book.statements[i].category;
    }
  }
  return dataset;
}

}  // namespace crowdfusion::data
