#ifndef CROWDFUSION_COMMON_MATH_UTIL_H_
#define CROWDFUSION_COMMON_MATH_UTIL_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace crowdfusion::common {

/// All entropies in this library are measured in bits (log base 2), matching
/// the paper's running example (e.g. H({f1,f4}) = 1.997 for two facts).

/// x * log2(x) with the standard convention 0 log 0 = 0.
inline double XLog2X(double x) { return x > 0.0 ? x * std::log2(x) : 0.0; }

/// log2(x) for x > 0 and 0 otherwise, so x * Log2OrZero(x) == XLog2X(x)
/// bit for bit on x >= 0.
inline double Log2OrZero(double x) { return x > 0.0 ? std::log2(x) : 0.0; }

/// Binary entropy h(p) = -p log2 p - (1-p) log2 (1-p), in bits.
double BinaryEntropy(double p);

/// Shannon entropy of a (not necessarily normalized) non-negative vector.
/// If the vector does not sum to 1 the entries are interpreted as-is, i.e.
/// the caller is responsible for normalization.
double Entropy(std::span<const double> probs);

/// Normalizes a non-negative vector in place to sum to 1. Returns the
/// pre-normalization sum (0 if the vector was all zeros, in which case the
/// vector is left untouched).
double Normalize(std::vector<double>& values);

/// Sum of a vector.
double Sum(std::span<const double> values);

/// True if |a - b| <= tol.
inline bool Near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

/// Kullback-Leibler divergence D(p || q) in bits. Entries where p == 0
/// contribute 0; entries where p > 0 and q == 0 contribute +infinity.
double KlDivergence(std::span<const double> p, std::span<const double> q);

/// n choose k without overflow for the sizes used here (n <= 63).
uint64_t BinomialCoefficient(int n, int k);

/// Clamps v into [lo, hi].
inline double Clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// p-th percentile (p in [0, 1], nearest-rank with rounding) of an
/// ascending-sorted sample; 0 for an empty one. The latency-gauge helper
/// shared by the serving stats, /metricsz, and the benches.
double PercentileOfSorted(std::span<const double> sorted, double p);

}  // namespace crowdfusion::common

#endif  // CROWDFUSION_COMMON_MATH_UTIL_H_
