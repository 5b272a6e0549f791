#include "common/math_util.h"

#include "common/logging.h"

namespace crowdfusion::common {

double BinaryEntropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -XLog2X(p) - XLog2X(1.0 - p);
}

double Entropy(std::span<const double> probs) {
  double h = 0.0;
  for (double p : probs) h -= XLog2X(p);
  return h;
}

double PercentileOfSorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[index < sorted.size() ? index : sorted.size() - 1];
}

uint64_t BinomialCoefficient(int n, int k) {
  CF_CHECK(n >= 0 && k >= 0);
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  uint64_t result = 1;
  for (int i = 1; i <= k; ++i) {
    result = result * static_cast<uint64_t>(n - k + i) /
             static_cast<uint64_t>(i);
  }
  return result;
}

}  // namespace crowdfusion::common
