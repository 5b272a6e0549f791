#include "common/json_util.h"

#include <charconv>
#include <limits>
#include <utility>

#include "common/string_util.h"

namespace crowdfusion::common {

Status JsonReadBool(const JsonValue& obj, const char* key, bool* out) {
  const JsonValue* member = obj.Find(key);
  if (member == nullptr) return Status::Ok();
  CF_ASSIGN_OR_RETURN(*out, member->GetBool());
  return Status::Ok();
}

Status JsonReadInt(const JsonValue& obj, const char* key, int* out) {
  const JsonValue* member = obj.Find(key);
  if (member == nullptr) return Status::Ok();
  CF_ASSIGN_OR_RETURN(const int64_t wide, member->GetInt());
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(
        StrFormat("member \"%s\" out of int range", key));
  }
  *out = static_cast<int>(wide);
  return Status::Ok();
}

Status JsonReadInt64(const JsonValue& obj, const char* key, int64_t* out) {
  const JsonValue* member = obj.Find(key);
  if (member == nullptr) return Status::Ok();
  CF_ASSIGN_OR_RETURN(*out, member->GetInt());
  return Status::Ok();
}

Status JsonReadDouble(const JsonValue& obj, const char* key, double* out) {
  const JsonValue* member = obj.Find(key);
  if (member == nullptr) return Status::Ok();
  CF_ASSIGN_OR_RETURN(*out, member->GetDouble());
  return Status::Ok();
}

Status JsonReadString(const JsonValue& obj, const char* key,
                      std::string* out) {
  const JsonValue* member = obj.Find(key);
  if (member == nullptr) return Status::Ok();
  CF_ASSIGN_OR_RETURN(*out, member->GetString());
  return Status::Ok();
}

Result<uint64_t> JsonParseU64Text(const std::string& text) {
  uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument("malformed uint64 \"" + text + "\"");
  }
  return value;
}

JsonValue JsonU64(uint64_t value) {
  if (value <= static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return JsonValue(static_cast<int64_t>(value));
  }
  return JsonValue(std::to_string(value));
}

Status JsonReadU64(const JsonValue& obj, const char* key, uint64_t* out) {
  const JsonValue* member = obj.Find(key);
  if (member == nullptr) return Status::Ok();
  if (member->is_string()) {
    CF_ASSIGN_OR_RETURN(const std::string text, member->GetString());
    CF_ASSIGN_OR_RETURN(*out, JsonParseU64Text(text));
    return Status::Ok();
  }
  CF_ASSIGN_OR_RETURN(const int64_t wide, member->GetInt());
  if (wide < 0) {
    return Status::InvalidArgument(
        StrFormat("member \"%s\" must be non-negative", key));
  }
  *out = static_cast<uint64_t>(wide);
  return Status::Ok();
}

JsonValue JsonFromBoolVec(const std::vector<bool>& values) {
  JsonValue array = JsonValue::MakeArray();
  for (const bool value : values) array.Append(JsonValue(value));
  return array;
}

Status JsonReadBoolVec(const JsonValue& obj, const char* key,
                       std::vector<bool>* out) {
  const JsonValue* member = obj.Find(key);
  if (member == nullptr) return Status::Ok();
  if (!member->is_array()) {
    return Status::InvalidArgument(
        StrFormat("member \"%s\" must be an array", key));
  }
  std::vector<bool> values;
  for (const JsonValue& item : member->array()) {
    CF_ASSIGN_OR_RETURN(const bool value, item.GetBool());
    values.push_back(value);
  }
  *out = std::move(values);
  return Status::Ok();
}

JsonValue JsonFromIntVec(const std::vector<int>& values) {
  JsonValue array = JsonValue::MakeArray();
  for (const int value : values) array.Append(JsonValue(value));
  return array;
}

Status JsonReadIntVec(const JsonValue& obj, const char* key,
                      std::vector<int>* out) {
  const JsonValue* member = obj.Find(key);
  if (member == nullptr) return Status::Ok();
  if (!member->is_array()) {
    return Status::InvalidArgument(
        StrFormat("member \"%s\" must be an array", key));
  }
  std::vector<int> values;
  for (const JsonValue& item : member->array()) {
    CF_ASSIGN_OR_RETURN(const int64_t value, item.GetInt());
    if (value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument(
          StrFormat("member \"%s\" element out of int range", key));
    }
    values.push_back(static_cast<int>(value));
  }
  *out = std::move(values);
  return Status::Ok();
}

JsonValue JsonFromDoubleVec(const std::vector<double>& values) {
  JsonValue array = JsonValue::MakeArray();
  for (const double value : values) array.Append(JsonValue(value));
  return array;
}

JsonValue JsonFromStringVec(const std::vector<std::string>& values) {
  JsonValue array = JsonValue::MakeArray();
  for (const std::string& value : values) array.Append(JsonValue(value));
  return array;
}

Status JsonReadStringVec(const JsonValue& obj, const char* key,
                         std::vector<std::string>* out) {
  const JsonValue* member = obj.Find(key);
  if (member == nullptr) return Status::Ok();
  if (!member->is_array()) {
    return Status::InvalidArgument(
        StrFormat("member \"%s\" must be an array", key));
  }
  std::vector<std::string> values;
  for (const JsonValue& item : member->array()) {
    CF_ASSIGN_OR_RETURN(std::string value, item.GetString());
    values.push_back(std::move(value));
  }
  *out = std::move(values);
  return Status::Ok();
}

Result<const JsonValue*> JsonRequireObject(const JsonValue& json,
                                           const char* what) {
  if (!json.is_object()) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be a JSON object");
  }
  return &json;
}

}  // namespace crowdfusion::common
