#ifndef CROWDFUSION_CORE_SERIALIZATION_H_
#define CROWDFUSION_CORE_SERIALIZATION_H_

#include <string>

#include "common/status.h"
#include "core/joint_distribution.h"

namespace crowdfusion::core {

/// Plain-text persistence for joint distributions, so fusion outputs can
/// be checkpointed between rounds or shipped to another process. Format
/// (line-oriented, '#' comments allowed):
///
///   crowdfusion-joint v1
///   facts <n>
///   entry <mask-decimal> <probability>
///   ...
///
/// Probabilities are written in their shortest round-trip spelling
/// (common::AppendShortestDouble), so a save/load round-trip is bit-exact
/// for doubles.
common::Status SaveJointDistribution(const JointDistribution& joint,
                                     const std::string& path);

common::Result<JointDistribution> LoadJointDistribution(
    const std::string& path);

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_SERIALIZATION_H_
