#ifndef CROWDFUSION_COMMON_JSON_UTIL_H_
#define CROWDFUSION_COMMON_JSON_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace crowdfusion::common {

/// Optional-member field plumbing shared by every JSON wire in the repo
/// (the service request/response format, the net crowd-ticket wire, the
/// serving front-end). One semantics everywhere:
///
///  * Readers keep the out-param untouched when the member is absent, so
///    C++ struct defaults survive a minimal document.
///  * A present member of the wrong type (or out of the target's range)
///    is kInvalidArgument naming the key — never a crash, never a silent
///    truncation.
///  * uint64 values (seeds, masks) are emitted as JSON integers when they
///    fit int64 and as decimal strings otherwise; readers accept both
///    spellings (JsonU64 / JsonReadU64).

Status JsonReadBool(const JsonValue& obj, const char* key, bool* out);
Status JsonReadInt(const JsonValue& obj, const char* key, int* out);
Status JsonReadInt64(const JsonValue& obj, const char* key, int64_t* out);
Status JsonReadDouble(const JsonValue& obj, const char* key, double* out);
Status JsonReadString(const JsonValue& obj, const char* key,
                      std::string* out);
Status JsonReadU64(const JsonValue& obj, const char* key, uint64_t* out);
Status JsonReadBoolVec(const JsonValue& obj, const char* key,
                       std::vector<bool>* out);
Status JsonReadIntVec(const JsonValue& obj, const char* key,
                      std::vector<int>* out);
Status JsonReadStringVec(const JsonValue& obj, const char* key,
                         std::vector<std::string>* out);

JsonValue JsonFromBoolVec(const std::vector<bool>& values);
JsonValue JsonFromIntVec(const std::vector<int>& values);
JsonValue JsonFromDoubleVec(const std::vector<double>& values);
JsonValue JsonFromStringVec(const std::vector<std::string>& values);

/// The lossless uint64 emitter described above.
JsonValue JsonU64(uint64_t value);

/// Strict all-digits uint64 text parse (the string spelling of JsonU64
/// and of joint-distribution masks).
Result<uint64_t> JsonParseU64Text(const std::string& text);

/// InvalidArgument naming `what` unless `json` is an object; returns
/// &json otherwise so callers can chain.
Result<const JsonValue*> JsonRequireObject(const JsonValue& json,
                                           const char* what);

}  // namespace crowdfusion::common

#endif  // CROWDFUSION_COMMON_JSON_UTIL_H_
