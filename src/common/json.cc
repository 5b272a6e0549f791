#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"

namespace crowdfusion::common {

using common::Status;

common::Result<bool> JsonValue::GetBool() const {
  if (const bool* b = std::get_if<bool>(&rep_)) return *b;
  return Status::InvalidArgument("JSON value is not a bool");
}

common::Result<int64_t> JsonValue::GetInt() const {
  if (const int64_t* i = std::get_if<int64_t>(&rep_)) return *i;
  return Status::InvalidArgument("JSON value is not an integer");
}

common::Result<double> JsonValue::GetDouble() const {
  if (const double* d = std::get_if<double>(&rep_)) return *d;
  if (const int64_t* i = std::get_if<int64_t>(&rep_)) {
    return static_cast<double>(*i);
  }
  return Status::InvalidArgument("JSON value is not a number");
}

common::Result<std::string> JsonValue::GetString() const {
  if (const std::string* s = std::get_if<std::string>(&rep_)) return *s;
  return Status::InvalidArgument("JSON value is not a string");
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  const Object* object = std::get_if<Object>(&rep_);
  if (object == nullptr) return nullptr;
  for (const auto& [name, value] : *object) {
    if (name == key) return &value;
  }
  return nullptr;
}

common::Result<const JsonValue*> JsonValue::Get(std::string_view key) const {
  const JsonValue* value = Find(key);
  if (value == nullptr) {
    return Status::NotFound("missing JSON member \"" + std::string(key) +
                            "\"");
  }
  return value;
}

void JsonValue::Set(std::string key, JsonValue value) {
  Object& members = object();
  for (auto& [name, existing] : members) {
    if (name == key) {
      existing = std::move(value);
      return;
    }
  }
  members.emplace_back(std::move(key), std::move(value));
}

void JsonValue::Append(JsonValue value) { array().push_back(std::move(value)); }

void AppendShortestDouble(std::string& out, double value) {
  CF_DCHECK(std::isfinite(value));
  // to_chars without a format emits the fewest digits that parse back to
  // `value` exactly, fixed or scientific, whichever is shorter. The longest
  // such spelling, -2.2250738585072014e-308, has 24 chars.
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  const std::string_view text(buf, static_cast<size_t>(result.ptr - buf));
  out += text;
  // Integral values get an explicit ".0" so they reparse as a double, not
  // an integer: Parse(Dump(x)) == x holds for the kind too.
  if (text.find_first_of(".e") == std::string_view::npos) out += ".0";
}

namespace {

void AppendEscaped(std::string& out, std::string_view text) {
  out.push_back('"');
  // Copies each run of plain characters at once; only the characters JSON
  // requires escaped break a run.
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        out += "\\u00";
        out.push_back(kHex[c >> 4]);
        out.push_back(kHex[c & 0xF]);
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
  out.push_back('"');
}

void AppendInt(std::string& out, int64_t value) {
  char buf[24];  // int64 needs at most 20
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

void AppendDouble(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "null";  // JSON has no NaN; null is the conventional stand-in.
  } else if (std::isinf(value)) {
    out += value > 0 ? "1e999" : "-1e999";  // parses back to +-infinity
  } else {
    AppendShortestDouble(out, value);
  }
}

/// Recursive-descent parser over a string_view with a hard depth cap (the
/// fuzz seeds include pathological nesting).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  common::Result<JsonValue> ParseDocument() {
    CF_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  common::Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Fail("JSON nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of JSON input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        CF_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue(std::move(s));
      }
      case 't':
        CF_RETURN_IF_ERROR(Expect("true"));
        return JsonValue(true);
      case 'f':
        CF_RETURN_IF_ERROR(Expect("false"));
        return JsonValue(false);
      case 'n':
        CF_RETURN_IF_ERROR(Expect("null"));
        return JsonValue(nullptr);
      default:
        return ParseNumber();
    }
  }

  common::Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // consume '{'
    JsonValue object = JsonValue::MakeObject();
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return object;
    }
    for (;;) {
      SkipWhitespace();
      if (Peek() != '"') return Fail("expected object key string");
      CF_ASSIGN_OR_RETURN(std::string key, ParseString());
      if (object.Find(key) != nullptr) {
        return Fail("duplicate object key \"" + key + "\"");
      }
      SkipWhitespace();
      if (Peek() != ':') return Fail("expected ':' after object key");
      ++pos_;
      CF_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      object.Set(std::move(key), std::move(value));
      SkipWhitespace();
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return object;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  common::Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // consume '['
    JsonValue array = JsonValue::MakeArray();
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return array;
    }
    for (;;) {
      CF_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      array.Append(std::move(value));
      SkipWhitespace();
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return array;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  common::Result<std::string> ParseString() {
    ++pos_;  // consume '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return Fail("dangling escape");
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
            unsigned int code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned int>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned int>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned int>(h - 'A' + 10);
              } else {
                return Fail("bad \\u escape digit");
              }
            }
            pos_ += 4;
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // produced by this repo's emitters; reject them cleanly).
            if (code >= 0xD800 && code <= 0xDFFF) {
              return Fail("surrogate \\u escapes are not supported");
            }
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Fail("unknown escape sequence");
        }
        continue;
      }
      out.push_back(c);
      ++pos_;
    }
    return Fail("unterminated string");
  }

  /// RFC 8259 number: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
  /// Leading zeros, a bare '.', and a fraction or exponent without digits
  /// are malformed.
  common::Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (Peek() == '0') {
      ++pos_;
      if (std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("malformed number");
      }
    } else if (!ConsumeDigits()) {
      return Fail("malformed number");
    }
    bool is_double = false;
    if (Peek() == '.') {
      ++pos_;
      if (!ConsumeDigits()) return Fail("malformed number");
      is_double = true;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!ConsumeDigits()) return Fail("malformed number");
      is_double = true;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!is_double) {
      int64_t integer = 0;
      const auto [ptr, ec] = std::from_chars(
          token.data(), token.data() + token.size(), integer);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return JsonValue(integer);
      }
      // Out-of-range integer literal: fall through to double parsing.
    }
    double number = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), number);
    if (ec == std::errc::result_out_of_range &&
        ptr == token.data() + token.size()) {
      // from_chars reports out-of-range for BOTH overflow and underflow.
      // strtod distinguishes them: overflow saturates to +-HUGE_VAL (the
      // 1e999 infinity convention), underflow to ~0 — a literal like
      // 1e-999 must parse as zero, not infinity.
      return JsonValue(std::strtod(std::string(token).c_str(), nullptr));
    }
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      return Fail("malformed number");
    }
    return JsonValue(number);
  }

  /// Consumes a run of digits; false when there is none.
  bool ConsumeDigits() {
    const size_t start = pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    return pos_ > start;
  }

  Status Expect(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Fail("malformed JSON literal");
    }
    pos_ += literal.size();
    return Status::Ok();
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  Status Fail(std::string message) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at offset %zu: %s", pos_,
                  message.c_str()));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

void JsonValue::DumpTo(int indent, int depth, std::string& out) const {
  const bool pretty = indent >= 0;
  // Indentation is appended directly (never materialized as strings):
  // scalars dominate real documents and need none of it.
  const auto pad = [&] {
    out.append(static_cast<size_t>(indent * (depth + 1)), ' ');
  };
  const auto close_pad = [&] {
    out.append(static_cast<size_t>(indent * depth), ' ');
  };
  switch (kind()) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += std::get<bool>(rep_) ? "true" : "false";
      return;
    case Kind::kInt:
      AppendInt(out, std::get<int64_t>(rep_));
      return;
    case Kind::kDouble:
      AppendDouble(out, std::get<double>(rep_));
      return;
    case Kind::kString:
      AppendEscaped(out, std::get<std::string>(rep_));
      return;
    case Kind::kArray: {
      const Array& items = std::get<Array>(rep_);
      if (items.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (pretty) {
          out.push_back('\n');
          pad();
        }
        items[i].DumpTo(indent, depth + 1, out);
      }
      if (pretty) {
        out.push_back('\n');
        close_pad();
      }
      out.push_back(']');
      return;
    }
    case Kind::kObject: {
      const Object& members = std::get<Object>(rep_);
      if (members.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      for (size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (pretty) {
          out.push_back('\n');
          pad();
        }
        AppendEscaped(out, members[i].first);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        members[i].second.DumpTo(indent, depth + 1, out);
      }
      if (pretty) {
        out.push_back('\n');
        close_pad();
      }
      out.push_back('}');
      return;
    }
  }
}

void JsonWriter::Separate() {
  if (need_comma_) out_.push_back(',');
  need_comma_ = false;
}

void JsonWriter::BeginObject() {
  Separate();
  out_.push_back('{');
}

void JsonWriter::EndObject() {
  out_.push_back('}');
  need_comma_ = true;
}

void JsonWriter::BeginArray() {
  Separate();
  out_.push_back('[');
}

void JsonWriter::EndArray() {
  out_.push_back(']');
  need_comma_ = true;
}

void JsonWriter::Key(std::string_view key) {
  Separate();
  AppendEscaped(out_, key);
  out_.push_back(':');
}

void JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  need_comma_ = true;
}

void JsonWriter::Int(int64_t value) {
  Separate();
  AppendInt(out_, value);
  need_comma_ = true;
}

void JsonWriter::Double(double value) {
  Separate();
  AppendDouble(out_, value);
  need_comma_ = true;
}

void JsonWriter::String(std::string_view value) {
  Separate();
  AppendEscaped(out_, value);
  need_comma_ = true;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  AppendEscaped(out, text);
  return out;
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(indent, 0, out);
  return out;
}

common::Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace crowdfusion::common
