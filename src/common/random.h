#ifndef CROWDFUSION_COMMON_RANDOM_H_
#define CROWDFUSION_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace crowdfusion::common {

/// Deterministic, seedable pseudo-random generator (xoshiro256**).
///
/// Every stochastic component in the library (dataset generation, crowd
/// simulation, random task selection) takes an Rng so experiments are
/// reproducible from a single seed. Not cryptographically secure.
class Rng {
 public:
  /// Seeds the state via SplitMix64 so that nearby seeds give independent
  /// streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// True with probability p (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Samples `count` distinct integers from [0, n) in increasing order.
  /// Precondition: 0 <= count <= n.
  std::vector<int> SampleWithoutReplacement(int n, int count);

  /// Samples an index from an unnormalized non-negative weight vector.
  /// Returns -1 if all weights are zero or the vector is empty.
  int SampleDiscrete(const std::vector<double>& weights);

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace crowdfusion::common

#endif  // CROWDFUSION_COMMON_RANDOM_H_
