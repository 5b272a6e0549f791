#include "core/joint_distribution.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "common/bit_util.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace crowdfusion::core {

using common::Result;
using common::Status;

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
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mask < b.mask; });
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
  const size_t count = 1ULL << n;
  std::vector<Entry> entries;
  entries.reserve(count);
  for (size_t mask = 0; mask < count; ++mask) {
    double p = 1.0;
    for (int i = 0; i < n; ++i) {
      p *= common::GetBit(mask, i) ? marginals[static_cast<size_t>(i)]
                                   : 1.0 - marginals[static_cast<size_t>(i)];
    }
    if (p > 0.0) entries.push_back({static_cast<uint64_t>(mask), p});
  }
  return FromEntries(n, std::move(entries), /*normalize=*/true);
}

common::Result<JointDistribution> JointDistribution::PointMass(int num_facts,
                                                               uint64_t mask) {
  return FromEntries(num_facts, {{mask, 1.0}});
}

std::optional<JointDistribution> JointDistribution::Renormalized(
    std::span<const double> weights) const {
  CF_CHECK(weights.size() == entries_.size());
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return std::nullopt;
  const double inv = 1.0 / total;
  std::vector<Entry> out;
  out.reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (weights[i] > 0.0) out.push_back({entries_[i].mask, weights[i] * inv});
  }
  return JointDistribution(num_facts_, std::move(out));
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
  double p = 0.0;
  for (const Entry& e : entries_) {
    if (common::GetBit(e.mask, fact_id)) p += e.prob;
  }
  return p;
}

std::vector<double> JointDistribution::Marginals() const {
  std::vector<double> out(static_cast<size_t>(num_facts_), 0.0);
  // Iterate only the set bits of each mask (sparse supports typically have
  // popcount << n), accumulating in the same ascending-bit order as the
  // naive loop so results stay bit-identical.
  for (const Entry& e : entries_) {
    for (uint64_t m = e.mask; m != 0; m &= m - 1) {
      out[static_cast<size_t>(std::countr_zero(m))] += e.prob;
    }
  }
  return out;
}

double JointDistribution::EntropyBits() const {
  double h = 0.0;
  for (const Entry& e : entries_) h -= common::XLog2X(e.prob);
  return h;
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

double JointDistribution::TotalMass() const {
  double total = 0.0;
  for (const Entry& e : entries_) total += e.prob;
  return total;
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
