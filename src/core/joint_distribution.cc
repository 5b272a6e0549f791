#include "core/joint_distribution.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "common/bit_util.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/string_util.h"

#if CROWDFUSION_SIMD_AVX2_COMPILED
#include <immintrin.h>
#endif

namespace crowdfusion::core {

using common::Result;
using common::Status;

namespace {

using Entry = JointDistribution::Entry;

/// One fact at a time, two accumulators; the bit-clear (bit-set) cell adds
/// +0.0 for entries with the bit set (clear), exactly as the AVX2 lanes do.
void FactCellSumsScalar(std::span<const Entry> entries, int num_facts,
                        double* out) {
  for (int f = 0; f < num_facts; ++f) {
    double zero = 0.0;
    double one = 0.0;
    for (const Entry& e : entries) {
      const bool bit = ((e.mask >> f) & 1ULL) != 0;
      zero += bit ? 0.0 : e.prob;
      one += bit ? e.prob : 0.0;
    }
    out[2 * f] = zero;
    out[2 * f + 1] = one;
  }
}

#if CROWDFUSION_SIMD_AVX2_COMPILED
// Vectorized across facts: one pass covers facts [first, first + 4R) in R
// registers of 4 lanes (R <= 4, so 16 facts), and its 2R accumulators stay
// in registers over the whole entry loop. A lane's compare mask routes the
// broadcast prob to its bit-set or bit-clear accumulator and the other
// receives an exact +0.0 (bitwise AND/ANDNOT, no multiply to contract), so
// every lane adds in entry order from +0.0, bit-identical to the scalar
// kernel. Lanes past num_facts (still < 64) are computed but not stored.
template <int R>
__attribute__((target("avx2"))) void FactCellSumsAvx2Pass(
    std::span<const Entry> entries, int first, int num_facts, double* out) {
  __m256i bit[R];
  __m256d acc0[R];
  __m256d acc1[R];
  for (int r = 0; r < R; ++r) {
    const int64_t f = first + 4 * r;
    bit[r] = _mm256_sllv_epi64(_mm256_set1_epi64x(1),
                               _mm256_setr_epi64x(f, f + 1, f + 2, f + 3));
    acc0[r] = _mm256_setzero_pd();
    acc1[r] = _mm256_setzero_pd();
  }
  for (const Entry& e : entries) {
    const __m256i mask = _mm256_set1_epi64x(static_cast<int64_t>(e.mask));
    const __m256d prob = _mm256_set1_pd(e.prob);
    for (int r = 0; r < R; ++r) {
      const __m256d set = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(mask, bit[r]), bit[r]));
      acc1[r] = _mm256_add_pd(acc1[r], _mm256_and_pd(set, prob));
      acc0[r] = _mm256_add_pd(acc0[r], _mm256_andnot_pd(set, prob));
    }
  }
  alignas(32) double zeros[4 * R];
  alignas(32) double ones[4 * R];
  for (int r = 0; r < R; ++r) {
    _mm256_store_pd(zeros + 4 * r, acc0[r]);
    _mm256_store_pd(ones + 4 * r, acc1[r]);
  }
  for (int j = 0; j < 4 * R && first + j < num_facts; ++j) {
    out[2 * (first + j)] = zeros[j];
    out[2 * (first + j) + 1] = ones[j];
  }
}

void FactCellSumsAvx2(std::span<const Entry> entries, int num_facts,
                      double* out) {
  constexpr void (*kPass[])(std::span<const Entry>, int, int, double*) = {
      FactCellSumsAvx2Pass<1>, FactCellSumsAvx2Pass<2>,
      FactCellSumsAvx2Pass<3>, FactCellSumsAvx2Pass<4>};
  for (int first = 0; first < num_facts; first += 16) {
    kPass[(std::min(num_facts - first, 16) - 1) / 4](entries, first, num_facts,
                                                     out);
  }
}
#endif  // CROWDFUSION_SIMD_AVX2_COMPILED

}  // namespace

void JointDistribution::AccumulateFactCellSums(std::span<const Entry> entries,
                                               int num_facts,
                                               common::SimdPolicy simd,
                                               std::span<double> out) {
  CF_CHECK(out.size() == 2 * static_cast<size_t>(num_facts));
#if CROWDFUSION_SIMD_AVX2_COMPILED
  if (common::ResolveSimd(simd)) {
    FactCellSumsAvx2(entries, num_facts, out.data());
    return;
  }
#endif
  (void)simd;
  FactCellSumsScalar(entries, num_facts, out.data());
}

JointDistribution::JointDistribution(int num_facts, std::vector<Entry> entries)
    : num_facts_(num_facts),
      entries_(std::move(entries)),
      log2_probs_(entries_.size()),
      cell_sums_(2 * static_cast<size_t>(num_facts)) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    const double p = entries_[i].prob;
    log2_probs_[i] = common::Log2OrZero(p);
    total_mass_ += p;
    entropy_bits_ -= p * log2_probs_[i];
  }
  AccumulateFactCellSums(entries_, num_facts_, common::SimdPolicy::kAuto,
                         cell_sums_);
}

common::Result<JointDistribution> JointDistribution::FromEntries(
    int num_facts, std::vector<Entry> entries, bool normalize,
    double tolerance) {
  if (num_facts < 0 || num_facts > kMaxFacts) {
    return Status::InvalidArgument(common::StrFormat(
        "num_facts must be in [0, %d], got %d", kMaxFacts, num_facts));
  }
  const uint64_t valid_bits =
      num_facts >= 64 ? ~0ULL : ((1ULL << num_facts) - 1);
  double total = 0.0;
  for (const Entry& e : entries) {
    if (e.prob < 0.0 || !std::isfinite(e.prob)) {
      return Status::InvalidArgument(
          common::StrFormat("invalid probability %g", e.prob));
    }
    if ((e.mask & ~valid_bits) != 0) {
      return Status::InvalidArgument(common::StrFormat(
          "output mask %llu uses bits beyond fact %d",
          static_cast<unsigned long long>(e.mask), num_facts - 1));
    }
    total += e.prob;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("distribution has zero total mass");
  }
  if (!normalize && std::fabs(total - 1.0) > tolerance) {
    return Status::InvalidArgument(common::StrFormat(
        "probabilities sum to %.9f, not 1 (pass normalize=true to rescale)",
        total));
  }
  // Strictly increasing masks are already the unique sorted order.
  if (std::ranges::adjacent_find(entries, std::greater_equal<>(),
                                 &Entry::mask) != entries.end()) {
    std::ranges::sort(entries, {}, &Entry::mask);
  }
  // Merge duplicates and drop zeros, rescaling only when asked: without
  // normalize the caller's probabilities are preserved bit-exactly (they
  // already sum to 1 within tolerance), which keeps save/load round-trips
  // exact.
  std::vector<Entry> merged;
  merged.reserve(entries.size());
  const double inv = normalize ? 1.0 / total : 1.0;
  for (const Entry& e : entries) {
    if (e.prob <= 0.0) continue;
    if (!merged.empty() && merged.back().mask == e.mask) {
      merged.back().prob += e.prob * inv;
    } else {
      merged.push_back({e.mask, e.prob * inv});
    }
  }
  return JointDistribution(num_facts, std::move(merged));
}

common::Result<JointDistribution> JointDistribution::FromDense(
    int num_facts, std::vector<double> probs, bool normalize) {
  if (num_facts < 0 || num_facts > kMaxDenseFacts) {
    return Status::InvalidArgument(common::StrFormat(
        "dense construction requires num_facts in [0, %d], got %d",
        kMaxDenseFacts, num_facts));
  }
  const size_t expected = 1ULL << num_facts;
  if (probs.size() != expected) {
    return Status::InvalidArgument(common::StrFormat(
        "dense vector has %zu entries, expected %zu", probs.size(), expected));
  }
  std::vector<Entry> entries;
  entries.reserve(probs.size());
  for (size_t mask = 0; mask < probs.size(); ++mask) {
    if (probs[mask] != 0.0) {
      entries.push_back({static_cast<uint64_t>(mask), probs[mask]});
    }
  }
  return FromEntries(num_facts, std::move(entries), normalize);
}

common::Result<JointDistribution> JointDistribution::Uniform(int num_facts) {
  if (num_facts < 0 || num_facts > kMaxDenseFacts) {
    return Status::InvalidArgument(
        "uniform distribution requires 0 <= num_facts <= 30");
  }
  const size_t count = 1ULL << num_facts;
  std::vector<Entry> entries(count);
  const double p = 1.0 / static_cast<double>(count);
  for (size_t mask = 0; mask < count; ++mask) {
    entries[mask] = {static_cast<uint64_t>(mask), p};
  }
  return JointDistribution(num_facts, std::move(entries));
}

common::Result<JointDistribution> JointDistribution::FromIndependentMarginals(
    std::span<const double> marginals) {
  const int n = static_cast<int>(marginals.size());
  if (n > kMaxDenseFacts) {
    return Status::InvalidArgument(
        "independent product limited to 30 facts (dense)");
  }
  for (double p : marginals) {
    if (p < 0.0 || p > 1.0 || !std::isfinite(p)) {
      return Status::InvalidArgument(
          common::StrFormat("marginal %g outside [0, 1]", p));
    }
  }
  // Doubling over facts 0..n-1: mask m's product is 1.0 times its factor
  // for fact 0, then fact 1, ..., the same multiplies in the same order as
  // a per-mask product loop.
  std::vector<Entry> entries(1ULL << n);
  entries[0].prob = 1.0;
  for (int i = 0; i < n; ++i) {
    const double p = marginals[static_cast<size_t>(i)];
    const size_t half = 1ULL << i;
    for (size_t mask = 0; mask < half; ++mask) {
      entries[mask | half] = {mask | half, entries[mask].prob * p};
      entries[mask].prob *= 1.0 - p;
    }
  }
  std::erase_if(entries, [](const Entry& e) { return !(e.prob > 0.0); });
  return FromEntries(n, std::move(entries), /*normalize=*/true);
}

common::Result<JointDistribution> JointDistribution::PointMass(int num_facts,
                                                               uint64_t mask) {
  return FromEntries(num_facts, {{mask, 1.0}});
}

double JointDistribution::Probability(uint64_t mask) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), mask,
      [](const Entry& e, uint64_t m) { return e.mask < m; });
  if (it != entries_.end() && it->mask == mask) return it->prob;
  return 0.0;
}

double JointDistribution::Marginal(int fact_id) const {
  CF_CHECK(fact_id >= 0 && fact_id < num_facts_);
  return cell_sums_[2 * static_cast<size_t>(fact_id) + 1];
}

std::vector<double> JointDistribution::Marginals() const {
  std::vector<double> out(static_cast<size_t>(num_facts_));
  for (size_t f = 0; f < out.size(); ++f) out[f] = cell_sums_[2 * f + 1];
  return out;
}

std::vector<double> JointDistribution::MarginalizeOnto(
    std::span<const int> fact_ids) const {
  const int k = static_cast<int>(fact_ids.size());
  CF_CHECK(k <= kMaxDenseFacts) << "marginalization target too large";
  for (int id : fact_ids) {
    CF_CHECK(id >= 0 && id < num_facts_) << "fact id out of range: " << id;
  }
  std::vector<int> positions(fact_ids.begin(), fact_ids.end());
  std::vector<double> out(1ULL << k, 0.0);
  for (const Entry& e : entries_) {
    out[common::ExtractBits(e.mask, positions)] += e.prob;
  }
  return out;
}

std::vector<double> JointDistribution::ToDense() const {
  CF_CHECK(num_facts_ <= kMaxDenseFacts)
      << "cannot densify " << num_facts_ << " facts";
  std::vector<double> out(1ULL << num_facts_, 0.0);
  for (const Entry& e : entries_) out[e.mask] = e.prob;
  return out;
}

bool JointDistribution::IsNormalized(double tolerance) const {
  return std::fabs(TotalMass() - 1.0) <= tolerance;
}

uint64_t JointDistribution::Mode() const {
  uint64_t best_mask = 0;
  double best_prob = -1.0;
  for (const Entry& e : entries_) {
    if (e.prob > best_prob) {
      best_prob = e.prob;
      best_mask = e.mask;
    }
  }
  return best_mask;
}

std::string JointDistribution::ToString(int max_entries) const {
  std::ostringstream os;
  os << "JointDistribution(n=" << num_facts_ << ", |O|=" << support_size()
     << ") {";
  int shown = 0;
  for (const Entry& e : entries_) {
    if (shown++ >= max_entries) {
      os << " ...";
      break;
    }
    os << " ";
    for (int i = num_facts_ - 1; i >= 0; --i) {
      os << (common::GetBit(e.mask, i) ? 'T' : 'F');
    }
    os << ":" << common::StrFormat("%.4f", e.prob);
  }
  os << " }";
  return os.str();
}

}  // namespace crowdfusion::core
