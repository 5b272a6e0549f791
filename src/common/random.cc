#include "common/random.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace crowdfusion::common {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  CF_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  CF_CHECK(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(theta);
  has_cached_gaussian_ = true;
  return radius * std::cos(theta);
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int count) {
  CF_CHECK(count >= 0 && count <= n);
  // Floyd's algorithm would avoid the O(n) vector for small samples, but
  // callers here sample a large fraction of n, so a shuffle prefix is fine.
  std::vector<int> pool(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) pool[static_cast<size_t>(i)] = i;
  for (int i = 0; i < count; ++i) {
    const int j =
        i + static_cast<int>(NextBounded(static_cast<uint64_t>(n - i)));
    std::swap(pool[static_cast<size_t>(i)], pool[static_cast<size_t>(j)]);
  }
  pool.resize(static_cast<size_t>(count));
  std::sort(pool.begin(), pool.end());
  return pool;
}

int Rng::SampleDiscrete(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    CF_CHECK(w >= 0.0);
    total += w;
  }
  if (total <= 0.0) return -1;
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

}  // namespace crowdfusion::common
