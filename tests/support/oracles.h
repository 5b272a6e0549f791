#ifndef CROWDFUSION_TESTS_SUPPORT_ORACLES_H_
#define CROWDFUSION_TESTS_SUPPORT_ORACLES_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/bayes.h"
#include "core/crowd_model.h"
#include "core/joint_distribution.h"

/// Literal forms of the paper's formulas and small joint-distribution
/// fixtures. The shipped code computes the same quantities faster (the
/// sparse refiner, the in-place Eq. 3 merge); tests hold it to these.

namespace crowdfusion::common {

/// Normalizes a non-negative vector in place to sum to 1. Returns the
/// pre-normalization sum (0 if the vector was all zeros, in which case the
/// vector is left untouched).
double Normalize(std::vector<double>& values);

/// Sum of a vector.
double Sum(std::span<const double> values);

}  // namespace crowdfusion::common

namespace crowdfusion::core {

/// Expected utility improvement of asking T (Section III-B):
///   ΔQ(F) = H(T) - H(T|F) = H(T) - |T| * H(Crowd).
double ExpectedQualityGain(const JointDistribution& joint,
                           std::span<const int> tasks,
                           const CrowdModel& crowd);

/// Greedy marginal gain ρ_j(T) = H(T ∪ {j}) - H(T) (Section III-D), from
/// two full H(T) evaluations.
double MarginalGain(const JointDistribution& joint,
                    std::span<const int> selected, int candidate,
                    const CrowdModel& crowd);

/// Applies a sequence of answer sets (multiple rounds) in order, one
/// PosteriorGivenAnswers per round.
common::Result<JointDistribution> PosteriorGivenAnswerSets(
    const JointDistribution& prior, std::span<const AnswerSet> answer_sets,
    const CrowdModel& crowd);

/// Uniform distribution over all 2^num_facts outputs.
common::Result<JointDistribution> Uniform(int num_facts);

/// Deterministic distribution: all mass on one output.
common::Result<JointDistribution> PointMass(int num_facts, uint64_t mask);

/// Most probable output mask (ties broken towards the smaller mask).
uint64_t Mode(const JointDistribution& joint);

/// Densifies to a full 2^n vector (index == mask). Requires
/// num_facts <= kMaxDenseFacts.
std::vector<double> ToDense(const JointDistribution& joint);

/// "JointDistribution(n=.., |O|=..) { FT:0.2500 ... }", outputs printed
/// fact n-1 first, at most `max_entries` of them.
std::string ToString(const JointDistribution& joint, int max_entries = 32);

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_TESTS_SUPPORT_ORACLES_H_
