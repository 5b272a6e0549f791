#ifndef CROWDFUSION_TESTS_CORE_ORACLE_PROVIDER_H_
#define CROWDFUSION_TESTS_CORE_ORACLE_PROVIDER_H_

#include <cstdint>
#include <utility>

#include "core/scripted_provider.h"

namespace crowdfusion::core {

/// A perfect crowd scripted by the test: fact i is answered with bit i of
/// `truth_mask` (fact ids 0..63).
inline ScriptedProvider OracleProvider(uint64_t truth_mask) {
  ScriptedProvider::Options options;
  for (int id = 0; id < 64; ++id) {
    options.script.push_back(((truth_mask >> id) & 1ULL) != 0);
  }
  return ScriptedProvider(std::move(options));
}

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_TESTS_CORE_ORACLE_PROVIDER_H_
