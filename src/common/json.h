#ifndef CROWDFUSION_COMMON_JSON_H_
#define CROWDFUSION_COMMON_JSON_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace crowdfusion::common {

/// A minimal JSON document model for the service boundary: requests,
/// responses, and bench baselines all (de)serialize through it, so the
/// repo needs no third-party JSON dependency.
///
/// Design constraints, in order:
///  * Lossless round-trips for doubles (emitted in their shortest
///    round-trip spelling, see AppendShortestDouble) and for 64-bit
///    integers up to the full int64 range (kept in a dedicated integer
///    alternative, not squeezed through a double).
///  * Deterministic output: object members keep insertion order, so a
///    parse -> dump cycle reproduces the input byte-for-byte (modulo
///    whitespace), which the request-fuzz round-trip tests rely on.
///  * Library error handling: Parse returns a Status instead of throwing.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Insertion-ordered object representation; keys are unique.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : rep_(nullptr) {}
  JsonValue(std::nullptr_t) : rep_(nullptr) {}
  JsonValue(bool value) : rep_(value) {}
  JsonValue(int value) : rep_(static_cast<int64_t>(value)) {}
  JsonValue(int64_t value) : rep_(value) {}
  JsonValue(uint64_t value);
  JsonValue(double value) : rep_(value) {}
  JsonValue(const char* value) : rep_(std::string(value)) {}
  JsonValue(std::string value) : rep_(std::move(value)) {}
  JsonValue(Array value) : rep_(std::move(value)) {}
  JsonValue(Object value) : rep_(std::move(value)) {}

  static JsonValue MakeArray() { return JsonValue(Array{}); }
  static JsonValue MakeObject() { return JsonValue(Object{}); }

  Kind kind() const { return static_cast<Kind>(rep_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_int() const { return kind() == Kind::kInt; }
  /// True for either numeric alternative.
  bool is_number() const { return is_int() || kind() == Kind::kDouble; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  /// Checked accessors: non-matching kinds return InvalidArgument.
  common::Result<bool> GetBool() const;
  common::Result<int64_t> GetInt() const;
  /// Accepts both numeric alternatives (an integer reads as its double).
  common::Result<double> GetDouble() const;
  common::Result<std::string> GetString() const;

  /// Unchecked views; precondition: matching kind() (aborts otherwise).
  const std::string& string() const { return std::get<std::string>(rep_); }
  const Array& array() const { return std::get<Array>(rep_); }
  Array& array() { return std::get<Array>(rep_); }
  const Object& object() const { return std::get<Object>(rep_); }
  Object& object() { return std::get<Object>(rep_); }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Object member lookup that fails loudly: NotFound names the key.
  common::Result<const JsonValue*> Get(std::string_view key) const;

  /// Sets (or replaces) an object member, keeping insertion order.
  /// Precondition: is_object().
  void Set(std::string key, JsonValue value);

  /// Appends to an array. Precondition: is_array().
  void Append(JsonValue value);

  /// Serializes compactly (indent < 0) or pretty-printed with the given
  /// indent width.
  std::string Dump(int indent = -1) const;

  /// Parses one JSON document; trailing non-whitespace is an error.
  static common::Result<JsonValue> Parse(std::string_view text);

  friend bool operator==(const JsonValue& a, const JsonValue& b) {
    return a.rep_ == b.rep_;
  }

 private:
  void DumpTo(int indent, int depth, std::string& out) const;

  std::variant<std::nullptr_t, bool, int64_t, double, std::string, Array,
               Object>
      rep_;
};

/// Append-only compact JSON writer into a caller-owned string. It shares
/// JsonValue::Dump()'s scalar spellings, so a writer and a tree describing
/// the same document emit the same bytes. The writer places commas; the
/// caller keeps the nesting well-formed (every Begin has its End, and
/// inside an object every value follows a Key).
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  /// An object member's key; the next call writes its value.
  void Key(std::string_view key);

  void Null();
  void Bool(bool value);
  void Int(int64_t value);
  void Double(double value);
  void String(std::string_view value);

 private:
  /// Emits the comma owed before the next element, if any.
  void Separate();

  std::string& out_;
  bool need_comma_ = false;
};

/// Escapes a string for embedding in JSON output (quotes included).
std::string JsonEscape(std::string_view text);

/// Appends the shortest decimal spelling of `value` that parses back to the
/// same double (std::to_chars), with ".0" on integral values so the text
/// re-reads as a double: 0.1, 1.0, -0.0, 1e+21, 5e-324. The one double
/// spelling of the repo's writers. Precondition: `value` is finite.
void AppendShortestDouble(std::string& out, double value);

}  // namespace crowdfusion::common

#endif  // CROWDFUSION_COMMON_JSON_H_
