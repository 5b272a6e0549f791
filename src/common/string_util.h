#ifndef CROWDFUSION_COMMON_STRING_UTIL_H_
#define CROWDFUSION_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace crowdfusion::common {

/// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// Removes leading/trailing ASCII whitespace.
std::string Trim(std::string_view text);

/// ASCII lowercase copy.
std::string ToLower(std::string_view text);

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace crowdfusion::common

#endif  // CROWDFUSION_COMMON_STRING_UTIL_H_
