#include "core/crowd_model.h"

#include <cmath>

#include "common/bit_util.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace crowdfusion::core {

namespace {

/// Pc^same * (1-Pc)^diff: the one spelling of the per-answer likelihood, so
/// AnswerLikelihood and AnswerLikelihoodsByDiff agree bit for bit.
double Likelihood(double pc, int same, int diff) {
  return std::pow(pc, same) * std::pow(1.0 - pc, diff);
}

}  // namespace

common::Result<CrowdModel> CrowdModel::Create(double pc) {
  if (!(pc >= 0.5 && pc <= 1.0)) {
    return common::Status::InvalidArgument(common::StrFormat(
        "crowd accuracy Pc must be in [0.5, 1], got %g", pc));
  }
  return CrowdModel(pc);
}

double CrowdModel::EntropyBits() const { return common::BinaryEntropy(pc_); }

double CrowdModel::AnswerLikelihood(uint64_t truth_bits, uint64_t answer_bits,
                                    int k) const {
  CF_DCHECK(k >= 0 && k <= 64);
  const uint64_t mask = k >= 64 ? ~0ULL : ((1ULL << k) - 1);
  const int diff = common::PopCount((truth_bits ^ answer_bits) & mask);
  return Likelihood(pc_, k - diff, diff);
}

void CrowdModel::AnswerLikelihoodsByDiff(int k, std::span<double> out) const {
  CF_DCHECK(k >= 0 && k <= 64 && out.size() > static_cast<size_t>(k));
  for (int diff = 0; diff <= k; ++diff) {
    out[static_cast<size_t>(diff)] = Likelihood(pc_, k - diff, diff);
  }
}

void CrowdModel::PushThroughChannel(std::vector<double>& dist, int k) const {
  PushThroughChannelOnCoords(dist, k, k >= 64 ? ~0ULL : ((1ULL << k) - 1));
}

void CrowdModel::PushThroughChannelOnCoords(std::vector<double>& dist, int m,
                                            uint64_t noisy_coords) const {
  CF_CHECK(dist.size() == (1ULL << m));
  const double keep = pc_;
  const double flip = 1.0 - pc_;
  if (flip == 0.0) return;  // Perfect crowd: channel is the identity.
  for (int b = 0; b < m; ++b) {
    if (!common::GetBit(noisy_coords, b)) continue;
    const uint64_t bit = 1ULL << b;
    // One BSC butterfly stage: each pair (x, x|bit) mixes.
    for (uint64_t x = 0; x < dist.size(); ++x) {
      if (x & bit) continue;
      const double p0 = dist[x];
      const double p1 = dist[x | bit];
      dist[x] = keep * p0 + flip * p1;
      dist[x | bit] = flip * p0 + keep * p1;
    }
  }
}

}  // namespace crowdfusion::core
