#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/string_util.h"
#include "perfbench.h"

namespace perfbench {

using cf::common::Result;
using cf::common::Status;

namespace {

constexpr size_t kNpos = std::string_view::npos;
constexpr double kRelativeTolerance = 1e-12;

bool IsSpace(char c) {
  return c == ' ' || c == '\n' || c == '\r' || c == '\t';
}

size_t SkipSpace(std::string_view text, size_t pos) {
  while (pos < text.size() && IsSpace(text[pos])) ++pos;
  return pos;
}

/// Position of the value of the first member named `key` at or after
/// `from` (a quoted key followed by ':'), or npos.
size_t FindMember(std::string_view text, std::string_view key,
                  size_t from = 0) {
  std::string needle;
  needle.reserve(key.size() + 2);
  needle.append(1, '"').append(key).append(1, '"');
  for (size_t at = text.find(needle, from); at != kNpos;
       at = text.find(needle, at + needle.size())) {
    const size_t colon = SkipSpace(text, at + needle.size());
    if (colon < text.size() && text[colon] == ':') {
      return SkipSpace(text, colon + 1);
    }
  }
  return kNpos;
}

/// Index one past the string that opens at text[pos] == '"'.
size_t SkipString(std::string_view text, size_t pos) {
  for (++pos; pos < text.size(); ++pos) {
    if (text[pos] == '\\') {
      ++pos;
    } else if (text[pos] == '"') {
      return pos + 1;
    }
  }
  return kNpos;
}

/// Index one past the object or array that opens at text[pos].
size_t SkipComposite(std::string_view text, size_t pos) {
  int depth = 0;
  while (pos < text.size()) {
    const char c = text[pos];
    if (c == '"') {
      pos = SkipString(text, pos);
      if (pos == kNpos) return kNpos;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth == 0) return pos + 1;
    }
    ++pos;
  }
  return kNpos;
}

Result<double> NumberAt(std::string_view text, size_t* pos) {
  if (*pos >= text.size()) return Status::InvalidArgument("missing number");
  double value = 0.0;
  const char* begin = text.data() + *pos;
  const auto [end, error] =
      std::from_chars(begin, text.data() + text.size(), value);
  if (error != std::errc()) {
    return Status::InvalidArgument("malformed number");
  }
  *pos += static_cast<size_t>(end - begin);
  return value;
}

Result<std::vector<double>> MemberNumberArray(std::string_view text,
                                              std::string_view key) {
  size_t pos = FindMember(text, key);
  if (pos == kNpos || text[pos] != '[') {
    return Status::InvalidArgument("missing array \"" + std::string(key) +
                                   "\"");
  }
  std::vector<double> values;
  pos = SkipSpace(text, pos + 1);
  if (pos < text.size() && text[pos] == ']') return values;
  for (;;) {
    CF_ASSIGN_OR_RETURN(const double value, NumberAt(text, &pos));
    values.push_back(value);
    pos = SkipSpace(text, pos);
    if (pos >= text.size()) break;
    if (text[pos] == ']') return values;
    if (text[pos] != ',') break;
    pos = SkipSpace(text, pos + 1);
  }
  return Status::InvalidArgument("malformed array \"" + std::string(key) +
                                 "\"");
}

/// The element objects of the array member `key`, as views into `text`.
Result<std::vector<std::string_view>> MemberObjects(std::string_view text,
                                                    std::string_view key) {
  size_t pos = FindMember(text, key);
  if (pos == kNpos || text[pos] != '[') {
    return Status::InvalidArgument("missing array \"" + std::string(key) +
                                   "\"");
  }
  std::vector<std::string_view> objects;
  pos = SkipSpace(text, pos + 1);
  while (pos < text.size() && text[pos] == '{') {
    const size_t end = SkipComposite(text, pos);
    if (end == kNpos) break;
    objects.push_back(text.substr(pos, end - pos));
    pos = SkipSpace(text, end);
    if (pos < text.size() && text[pos] == ',') pos = SkipSpace(text, pos + 1);
  }
  if (pos >= text.size() || text[pos] != ']') {
    return Status::InvalidArgument("malformed array \"" + std::string(key) +
                                   "\"");
  }
  return objects;
}

bool Close(double a, double b) {
  return std::fabs(a - b) <=
         kRelativeTolerance * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace

Result<Observed> ScanFusionResponse(std::string_view body) {
  const size_t open = SkipSpace(body, 0);
  const size_t close = open < body.size() && body[open] == '{'
                           ? SkipComposite(body, open)
                           : kNpos;
  if (close == kNpos || SkipSpace(body, close) != body.size()) {
    return Status::InvalidArgument("response is not one JSON object");
  }
  Observed observed;
  CF_ASSIGN_OR_RETURN(const double cost,
                      ScanNumber(body, "total_cost_spent"));
  observed.total_cost_spent = static_cast<int>(cost);
  if (observed.total_cost_spent != cost) {
    return Status::InvalidArgument("total_cost_spent is not an integer");
  }
  CF_ASSIGN_OR_RETURN(observed.total_utility_bits,
                      ScanNumber(body, "total_utility_bits"));
  CF_ASSIGN_OR_RETURN(const auto instances, MemberObjects(body, "instances"));
  for (std::string_view instance : instances) {
    CF_ASSIGN_OR_RETURN(auto marginals,
                        MemberNumberArray(instance, "final_marginals"));
    CF_ASSIGN_OR_RETURN(const double utility,
                        ScanNumber(instance, "utility_bits"));
    observed.final_marginals.push_back(std::move(marginals));
    observed.instance_utility_bits.push_back(utility);
  }
  CF_ASSIGN_OR_RETURN(const auto steps, MemberObjects(body, "steps"));
  for (std::string_view step : steps) {
    CF_ASSIGN_OR_RETURN(const double instance, ScanNumber(step, "instance"));
    if (instance < 0) continue;  // the exhaustion marker
    CF_ASSIGN_OR_RETURN(const double latency,
                        ScanNumber(step, "latency_seconds"));
    observed.step_latency_seconds.push_back(latency);
  }
  return observed;
}

std::string CompareToExpected(const Observed& observed,
                              const Expected& expected) {
  using cf::common::StrFormat;
  if (observed.total_cost_spent != expected.total_cost_spent) {
    return StrFormat("total_cost_spent %d, expected %d",
                     observed.total_cost_spent, expected.total_cost_spent);
  }
  if (!Close(observed.total_utility_bits, expected.total_utility_bits)) {
    return StrFormat("total_utility_bits %.17g, expected %.17g",
                     observed.total_utility_bits,
                     expected.total_utility_bits);
  }
  if (observed.final_marginals.size() != expected.final_marginals.size()) {
    return StrFormat("%zu instances, expected %zu",
                     observed.final_marginals.size(),
                     expected.final_marginals.size());
  }
  for (size_t i = 0; i < expected.final_marginals.size(); ++i) {
    if (!Close(observed.instance_utility_bits[i],
               expected.instance_utility_bits[i])) {
      return StrFormat("instance %zu utility_bits %.17g, expected %.17g", i,
                       observed.instance_utility_bits[i],
                       expected.instance_utility_bits[i]);
    }
    const auto& got = observed.final_marginals[i];
    const auto& want = expected.final_marginals[i];
    if (got.size() != want.size()) {
      return StrFormat("instance %zu has %zu marginals, expected %zu", i,
                       got.size(), want.size());
    }
    for (size_t f = 0; f < want.size(); ++f) {
      if (!Close(got[f], want[f])) {
        return StrFormat("instance %zu fact %zu marginal %.17g, expected %.17g",
                         i, f, got[f], want[f]);
      }
    }
  }
  return "";
}

FactTally TallyAccuracy(const Observed& observed,
                        const std::vector<std::vector<bool>>& truths) {
  FactTally tally;
  for (size_t i = 0; i < truths.size(); ++i) {
    for (size_t f = 0; f < truths[i].size(); ++f) {
      ++tally.total;
      if (i >= observed.final_marginals.size() ||
          f >= observed.final_marginals[i].size()) {
        continue;
      }
      const double marginal = observed.final_marginals[i][f];
      if (truths[i][f] ? marginal > 0.5 : marginal < 0.5) ++tally.correct;
    }
  }
  return tally;
}

bool AcceptFusionResponse(const PoolItem& item, int status_code,
                          std::string_view body, LaneStats& stats) {
  const auto fail = [&](std::string why) {
    if (stats.first_error.empty()) stats.first_error = std::move(why);
    return false;
  };
  if (status_code != 200) {
    return fail(cf::common::StrFormat("HTTP %d: %.200s", status_code,
                                      std::string(body).c_str()));
  }
  auto observed = ScanFusionResponse(body);
  if (!observed.ok()) return fail(observed.status().ToString());
  if (std::string why = CompareToExpected(*observed, item.expected);
      !why.empty()) {
    return fail(item.request.label + ": " + why);
  }
  if (stats.quality.size() <= item.index) {
    stats.quality.resize(item.index + 1);
  }
  LaneStats::ItemQuality& quality = stats.quality[item.index];
  quality.served = true;
  quality.utility_gain_bits =
      observed->total_utility_bits - item.initial_utility_bits;
  quality.facts = TallyAccuracy(*observed, item.truths);
  // Engine-mode steps carry no crowd latency; only remote crowds do.
  if (item.request.provider.kind == "http") {
    for (const double seconds : observed->step_latency_seconds) {
      stats.crowd_latency_ms.push_back(seconds * 1e3);
    }
    stats.tickets_merged +=
        static_cast<int64_t>(observed->step_latency_seconds.size());
  }
  return true;
}

Result<double> ScanNumber(std::string_view text, std::string_view key) {
  size_t pos = FindMember(text, key);
  if (pos == kNpos) {
    return Status::InvalidArgument("missing member \"" + std::string(key) +
                                   "\"");
  }
  return NumberAt(text, &pos);
}

Result<std::string> ScanString(std::string_view body, std::string_view key) {
  const size_t pos = FindMember(body, key);
  if (pos == kNpos || body[pos] != '"') {
    return Status::InvalidArgument("missing string \"" + std::string(key) +
                                   "\"");
  }
  const size_t end = SkipString(body, pos);
  if (end == kNpos) return Status::InvalidArgument("unterminated string");
  return std::string(body.substr(pos + 1, end - pos - 2));
}

Result<bool> ScanBool(std::string_view body, std::string_view key) {
  const size_t pos = FindMember(body, key);
  if (pos != kNpos && body.substr(pos, 4) == "true") return true;
  if (pos != kNpos && body.substr(pos, 5) == "false") return false;
  return Status::InvalidArgument("missing bool \"" + std::string(key) + "\"");
}


}  // namespace perfbench
