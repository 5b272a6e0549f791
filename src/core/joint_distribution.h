#ifndef CROWDFUSION_CORE_JOINT_DISTRIBUTION_H_
#define CROWDFUSION_CORE_JOINT_DISTRIBUTION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/status.h"

namespace crowdfusion::core {

struct AnswerSet;
class CrowdModel;

/// Joint probability distribution over the 2^n true/false assignments
/// ("outputs", Section II-A) of n facts.
///
/// An output is a bitmask: bit i set means fact i is judged true. The
/// distribution is stored as a sparse, mask-sorted support list so that
/// strongly correlated inputs (few possible worlds) stay compact, while
/// dense inputs (the paper's running example, independent products) simply
/// enumerate all 2^n masks.
///
/// Supports n up to kMaxDenseFacts = 30 when densified; sparse
/// distributions can use the full 64 mask bits (kMaxFacts = 64).
///
/// Every distribution carries a summary of its support, computed in the
/// same construction (or in-place merge) that builds the entries and never
/// changed afterwards, so reading it is thread-safe: the per-fact cell
/// masses (fact_cell_sums()), H(F) and the total mass. The cell sums and
/// the mass are bit-equal to the literal loops over entries() they
/// replace. H(F) = -sum p log2 p is read off a cached log2 p per entry:
/// construction fills the cache with one std::log2 per entry, so H is
/// bit-equal to the literal loop there. An Eq. 3 merge shifts each cached
/// log by one add (bayes.h), so H after a merge may differ from the
/// literal loop in its last bits; every kMergesPerExactLogs-th merge of a
/// joint recomputes the logs from the probabilities, which makes H
/// bit-equal again and bounds the drift in between.
class JointDistribution {
 public:
  struct Entry {
    uint64_t mask = 0;
    double prob = 0.0;

    friend bool operator==(const Entry& a, const Entry& b) = default;
  };

  /// Largest fact count for which dense 2^n materialization is permitted.
  static constexpr int kMaxDenseFacts = 30;
  /// Largest fact count representable at all (mask bits).
  static constexpr int kMaxFacts = 64;
  /// Every this-many-th merge of a joint recomputes its cached log2 p from
  /// p (an exact merge); the merges in between carry the logs. Chosen from
  /// the measured drift of |H_carried - H_literal| over chained merges with
  /// no recompute: its worst case over 64 seeds grows about linearly, to
  /// 1.4e-14 bits by merge 64 and 1.1e-13 by merge 1,000, so this period
  /// stays about 70x inside the 1e-12-bit bound the tests hold.
  static constexpr int kMergesPerExactLogs = 64;

  JointDistribution() = default;

  /// Builds from explicit (mask, probability) entries. Entries with
  /// duplicate masks are merged; zero-probability entries are dropped.
  /// Fails if any probability is negative, any mask uses bits >= num_facts,
  /// or the probabilities do not sum to 1 within `tolerance` (pass
  /// normalize=true to rescale instead).
  static common::Result<JointDistribution> FromEntries(
      int num_facts, std::vector<Entry> entries, bool normalize = false,
      double tolerance = 1e-6);

  /// Dense distribution from a full vector of 2^num_facts probabilities
  /// (index == mask).
  static common::Result<JointDistribution> FromDense(
      int num_facts, std::vector<double> probs, bool normalize = false);

  /// Uniform distribution over all 2^num_facts outputs.
  static common::Result<JointDistribution> Uniform(int num_facts);

  /// Product distribution of independent facts with the given marginal
  /// probabilities of being true (dense; requires size <= kMaxDenseFacts).
  static common::Result<JointDistribution> FromIndependentMarginals(
      std::span<const double> marginals);

  /// Deterministic distribution: all mass on one output.
  static common::Result<JointDistribution> PointMass(int num_facts,
                                                     uint64_t mask);

  /// The summary's cell-sum kernel: out[2f] = P(f false) and out[2f + 1] =
  /// P(f true), each summed over `entries` in order from +0.0. The AVX2 and
  /// scalar kernels are bit-identical; `simd` exists for the dispatch
  /// differential. `out` holds 2 * num_facts doubles.
  static void AccumulateFactCellSums(std::span<const Entry> entries,
                                     int num_facts, common::SimdPolicy simd,
                                     std::span<double> out);

  int num_facts() const { return num_facts_; }
  /// Number of support entries |O|.
  int support_size() const { return static_cast<int>(entries_.size()); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Probability of one output mask (0 if outside the support).
  double Probability(uint64_t mask) const;

  /// Per-fact cell masses: [2f] = P(f false), [2f + 1] = P(f true); the
  /// refiner's candidate cell sums at T = ∅.
  const std::vector<double>& fact_cell_sums() const { return cell_sums_; }

  /// Marginal probability P(f_id = true), read from the summary.
  double Marginal(int fact_id) const;

  /// All marginals, read from the summary.
  std::vector<double> Marginals() const;

  /// Shannon entropy H(F) of the joint, in bits (stored; see the class
  /// comment for how it relates to the literal loop).
  double EntropyBits() const { return entropy_bits_; }

  /// PWS-quality Q(F) = -H(F) (Definition 1).
  double Quality() const { return -EntropyBits(); }

  /// Marginalizes onto the facts listed in `fact_ids` (ascending ids not
  /// required; result coordinate i corresponds to fact_ids[i]). Returns a
  /// dense vector of 2^k probabilities. Requires k <= kMaxDenseFacts.
  std::vector<double> MarginalizeOnto(std::span<const int> fact_ids) const;

  /// Densifies to a full 2^n vector (index == mask). Requires
  /// num_facts <= kMaxDenseFacts.
  std::vector<double> ToDense() const;

  /// Sum of all probabilities in entry order (stored; should be 1 for a
  /// normalized distribution).
  double TotalMass() const { return total_mass_; }

  /// True if TotalMass() is within `tolerance` of 1.
  bool IsNormalized(double tolerance = 1e-6) const;

  /// Most probable output mask (ties broken towards the smaller mask).
  uint64_t Mode() const;

  std::string ToString(int max_entries = 32) const;

  /// Equal distributions: the same facts and the same entries. The
  /// summary and the log cache derive from those and are not compared.
  friend bool operator==(const JointDistribution& a,
                         const JointDistribution& b) {
    return a.num_facts_ == b.num_facts_ && a.entries_ == b.entries_;
  }

 private:
  /// Equation 3 rewrites the entries and the summary in place (bayes.h).
  friend common::Status MergeAnswersInPlace(JointDistribution& joint,
                                            const AnswerSet& answer_set,
                                            const CrowdModel& crowd);

  /// Takes the entries as built and computes the summary.
  JointDistribution(int num_facts, std::vector<Entry> entries);

  int num_facts_ = 0;
  std::vector<Entry> entries_;  // sorted by mask, unique, prob > 0
  // log2_probs_[i] = log2 entries_[i].prob (0 where prob is 0), exact at
  // construction and on exact merges, carried in between.
  std::vector<double> log2_probs_;
  int merges_since_exact_logs_ = 0;
  // The summary of entries_.
  std::vector<double> cell_sums_;  // 2 * num_facts_
  double entropy_bits_ = 0.0;
  double total_mass_ = 0.0;
};

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_JOINT_DISTRIBUTION_H_
