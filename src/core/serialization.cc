#include "core/serialization.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/json.h"
#include "common/json_util.h"
#include "common/string_util.h"

namespace crowdfusion::core {

using common::Status;

namespace {

constexpr char kJointHeader[] = "crowdfusion-joint v1";

/// The whitespace-separated tokens of one line.
std::vector<std::string> Tokens(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) tokens.push_back(std::move(token));
  return tokens;
}

/// Parses the whole token as a number: no trailing characters.
template <typename T>
bool ParseWhole(const std::string& token, T* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Reads "entry <mask> <probability>". Masks take the all-digits rule
/// JointFromJson uses, so "-1" is not read as 2^64 - 1.
bool ParseEntry(const std::vector<std::string>& tokens,
                JointDistribution::Entry* entry) {
  if (tokens.size() != 3) return false;
  const common::Result<uint64_t> mask = common::JsonParseU64Text(tokens[1]);
  if (!mask.ok()) return false;
  entry->mask = *mask;
  return ParseWhole(tokens[2], &entry->prob);
}

}  // namespace

Status SaveJointDistribution(const JointDistribution& joint,
                             const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  out << kJointHeader << "\n";
  out << "facts " << joint.num_facts() << "\n";
  std::string prob;
  for (const auto& entry : joint.entries()) {
    prob.clear();
    common::AppendShortestDouble(prob, entry.prob);
    out << "entry " << entry.mask << " " << prob << "\n";
  }
  out.close();
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

common::Result<JointDistribution> LoadJointDistribution(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open: " + path);
  std::string line;
  if (!std::getline(in, line) || common::Trim(line) != kJointHeader) {
    return Status::InvalidArgument("missing joint header in " + path);
  }
  int num_facts = -1;
  std::vector<JointDistribution::Entry> entries;
  while (std::getline(in, line)) {
    const std::vector<std::string> tokens = Tokens(line);
    if (tokens.empty() || tokens[0][0] == '#') continue;  // blank or comment
    const std::string& keyword = tokens[0];
    if (keyword == "facts") {
      if (tokens.size() != 2 || !ParseWhole(tokens[1], &num_facts) ||
          num_facts < 0) {
        return Status::InvalidArgument("bad facts line: " + line);
      }
    } else if (keyword == "entry") {
      JointDistribution::Entry entry;
      if (!ParseEntry(tokens, &entry)) {
        return Status::InvalidArgument("bad entry line: " + line);
      }
      entries.push_back(entry);
    } else {
      return Status::InvalidArgument("unknown keyword: " + keyword);
    }
  }
  if (num_facts < 0) {
    return Status::InvalidArgument("joint file has no facts line");
  }
  return JointDistribution::FromEntries(num_facts, std::move(entries),
                                        /*normalize=*/false,
                                        /*tolerance=*/1e-9);
}

}  // namespace crowdfusion::core
