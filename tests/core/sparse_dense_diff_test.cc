/// Differential property tests pinning the partition-refinement engine to
/// the literal Equation 2 scan on random seeded joints with n <= 20, where
/// the scan is feasible. The chain is simd ≡ scalar ≡ Equation 2: the
/// forced-AVX2 and forced-scalar tile kernels must agree bit for bit, and
/// both must match the scan within tolerance. If the refiner ever drifts —
/// marginals, H(T), per-candidate refinement gains, or the greedy's
/// selected task set — one of these seeds catches it. A final section runs
/// the refiner alone at n = 64 with a 10^5-output support, the scale the
/// scan cannot reach, and cross-checks its entropies against the
/// independent marginalize-and-push evaluator.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/answer_model.h"
#include "core/greedy_selector.h"
#include "core/sparse_refiner.h"
#include "core/utility.h"
#include "sparse_test_util.h"
#include "support/oracles.h"
#include "support/status_printing.h"

namespace crowdfusion::core {
namespace {

constexpr double kTol = 1e-9;
constexpr int kNumSeeds = 64;

CrowdModel MakeCrowd(double pc) {
  auto crowd = CrowdModel::Create(pc);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

JointDistribution SeededSparseJoint(int n, int support, uint64_t seed) {
  common::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  return RandomSparseJoint(n, support, rng);
}

struct SeedInstance {
  JointDistribution joint;
  CrowdModel crowd;
  std::vector<int> committed;
};

SeedInstance MakeInstance(uint64_t seed) {
  const int n = 4 + static_cast<int>(seed % 17);  // 4..20
  const int max_support = static_cast<int>(std::min<uint64_t>(1ULL << n, 400));
  const int support =
      2 +
      static_cast<int>((seed * 37) % static_cast<uint64_t>(max_support - 1));
  SeedInstance instance{SeededSparseJoint(n, support, seed),
                        MakeCrowd(0.6 + 0.08 * static_cast<double>(seed % 5)),
                        {}};
  common::Rng rng(seed ^ 0xABCDEF);
  const int committed_count = 1 + static_cast<int>(seed % 3);
  instance.committed =
      rng.SampleWithoutReplacement(n, std::min(committed_count, n));
  return instance;
}

/// The tile kernels the host can run: always scalar, plus AVX2 when the
/// CPU supports it. Each is checked against Equation 2 on every seed.
std::vector<common::SimdPolicy> HostKernels() {
  std::vector<common::SimdPolicy> kernels = {common::SimdPolicy::kForceScalar};
  if (common::CpuSupportsAvx2()) {
    kernels.push_back(common::SimdPolicy::kForceAvx2);
  }
  return kernels;
}

SparsePartitionRefiner CommittedRefiner(const SeedInstance& instance,
                                        common::SimdPolicy simd) {
  SparsePartitionRefiner::Options options;
  options.simd = simd;
  SparsePartitionRefiner refiner(instance.joint, instance.crowd, options);
  for (int fact : instance.committed) refiner.Commit(fact);
  return refiner;
}

TEST(SparseDenseDiffTest, MarginalsAgreeBitForBit) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const SeedInstance instance = MakeInstance(seed);
    const JointDistribution& joint = instance.joint;
    const std::vector<double> all = joint.Marginals();
    ASSERT_EQ(all.size(), static_cast<size_t>(joint.num_facts()));
    const std::vector<double> dense = ToDense(joint);
    for (int f = 0; f < joint.num_facts(); ++f) {
      // The batched scan must match the single-fact scan exactly: both
      // accumulate the same probabilities in the same support order.
      EXPECT_EQ(all[static_cast<size_t>(f)], joint.Marginal(f))
          << "seed=" << seed << " fact=" << f;
      // And the dense table recomputation within tolerance.
      double from_dense = 0.0;
      for (size_t mask = 0; mask < dense.size(); ++mask) {
        if ((mask >> f) & 1ULL) from_dense += dense[mask];
      }
      EXPECT_NEAR(all[static_cast<size_t>(f)], from_dense, kTol)
          << "seed=" << seed << " fact=" << f;
    }
  }
}

TEST(SparseDenseDiffTest, CommittedEntropyAgreesAcrossEngines) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const SeedInstance instance = MakeInstance(seed);
    const JointDistribution& joint = instance.joint;

    const double h_fast =
        AnswerEntropyBits(joint, instance.committed, instance.crowd);
    const double h_brute =
        AnswerEntropyBitsBruteForce(joint, instance.committed, instance.crowd);
    EXPECT_NEAR(h_fast, h_brute, kTol) << "seed=" << seed;
    for (const common::SimdPolicy simd : HostKernels()) {
      const SparsePartitionRefiner refiner = CommittedRefiner(instance, simd);
      EXPECT_NEAR(refiner.CommittedEntropyBits(), h_brute, kTol)
          << "seed=" << seed << " avx2=" << refiner.simd_active();
    }
  }
}

TEST(SparseDenseDiffTest, RefinementGainsAgreeAcrossEngines) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const SeedInstance instance = MakeInstance(seed);
    const JointDistribution& joint = instance.joint;

    std::vector<int> candidates;
    for (int f = 0; f < joint.num_facts(); ++f) {
      if (std::find(instance.committed.begin(), instance.committed.end(), f) ==
          instance.committed.end()) {
        candidates.push_back(f);
      }
    }
    auto profile = MarginalGainProfile(joint, instance.committed, candidates,
                                       instance.crowd);
    ASSERT_TRUE(profile.ok()) << profile.status().ToString();

    for (const common::SimdPolicy simd : HostKernels()) {
      const SparsePartitionRefiner refiner = CommittedRefiner(instance, simd);
      const double h_committed = refiner.CommittedEntropyBits();
      const std::vector<double> batch =
          refiner.EntropiesWithCandidates(candidates);
      for (size_t c = 0; c < candidates.size(); ++c) {
        const int fact = candidates[c];
        std::vector<int> extended = instance.committed;
        extended.push_back(fact);
        const double h_brute =
            AnswerEntropyBitsBruteForce(joint, extended, instance.crowd);
        const double h_single = refiner.EntropyWithCandidate(fact);
        EXPECT_NEAR(h_single, h_brute, kTol)
            << "seed=" << seed << " f=" << fact;
        // The batch API is the same computation, just tiled.
        EXPECT_EQ(batch[c], h_single) << "seed=" << seed << " f=" << fact;
        EXPECT_NEAR(profile->at(c), h_single - h_committed, kTol)
            << "seed=" << seed << " f=" << fact;
      }
    }
  }
}

TEST(SparseDenseDiffTest, GreedySelectionAgreesAcrossEngines) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const SeedInstance instance = MakeInstance(seed);
    SelectionRequest request;
    request.joint = &instance.joint;
    request.crowd = &instance.crowd;
    request.k = std::min(3, instance.joint.num_facts());

    GreedySelector brute_greedy;  // literal Equation 2, no preprocessing
    auto brute_sel = brute_greedy.Select(request);
    ASSERT_TRUE(brute_sel.ok()) << brute_sel.status().ToString();

    for (const common::SimdPolicy simd : HostKernels()) {
      GreedySelector::Options options;
      options.use_preprocessing = true;
      options.simd = simd;
      GreedySelector greedy(options);
      auto selection = greedy.Select(request);
      ASSERT_TRUE(selection.ok()) << selection.status().ToString();
      EXPECT_EQ(selection->tasks, brute_sel->tasks) << "seed=" << seed;
      EXPECT_NEAR(selection->entropy_bits, brute_sel->entropy_bits, kTol)
          << "seed=" << seed;
    }
  }
}

/// SIMD leg of the chain: on AVX2 hosts, the forced-AVX2 batched kernel
/// must be bit-identical to the forced-scalar one on every seed the
/// Equation 2 tests above pin. Hosts without AVX2 (including
/// CROWDFUSION_DISABLE_SIMD builds) skip; the scalar tile kernel is still
/// pinned by RefinementGainsAgreeAcrossEngines.
TEST(SparseDenseDiffTest, SimdKernelBitIdenticalToScalarOnAllSeeds) {
  if (!common::CpuSupportsAvx2()) {
    GTEST_SKIP() << "host cannot run the AVX2 kernel";
  }
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const SeedInstance instance = MakeInstance(seed);
    const JointDistribution& joint = instance.joint;

    const SparsePartitionRefiner scalar =
        CommittedRefiner(instance, common::SimdPolicy::kForceScalar);
    const SparsePartitionRefiner avx2 =
        CommittedRefiner(instance, common::SimdPolicy::kForceAvx2);
    EXPECT_EQ(scalar.CommittedEntropyBits(), avx2.CommittedEntropyBits())
        << "seed=" << seed;

    std::vector<int> candidates;
    for (int f = 0; f < joint.num_facts(); ++f) {
      if (std::find(instance.committed.begin(), instance.committed.end(), f) ==
          instance.committed.end()) {
        candidates.push_back(f);
      }
    }
    const std::vector<double> h_scalar =
        scalar.EntropiesWithCandidates(candidates);
    const std::vector<double> h_avx2 = avx2.EntropiesWithCandidates(candidates);
    ASSERT_EQ(h_scalar.size(), h_avx2.size());
    for (size_t c = 0; c < candidates.size(); ++c) {
      EXPECT_EQ(h_scalar[c], h_avx2[c])
          << "seed=" << seed << " f=" << candidates[c];
    }
  }
}

/// At T = ∅ the refiner reads the joint's cell sums instead of scanning.
/// They must be bit-equal to the single-candidate reference scan on every
/// seed, whatever the kernel policy, pool or batch size: even the few-
/// candidate batches that used to take the entry-sharded path.
TEST(SparseDenseDiffTest, EmptySetCachedSumsBitEqualToReferenceScan) {
  common::ThreadPool pool(3);
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const SeedInstance instance = MakeInstance(seed);
    const JointDistribution& joint = instance.joint;
    std::vector<int> all(static_cast<size_t>(joint.num_facts()));
    for (int f = 0; f < joint.num_facts(); ++f) {
      all[static_cast<size_t>(f)] = f;
    }
    const std::vector<int> few = {0, joint.num_facts() - 1};
    const std::vector<const std::vector<int>*> batches = {&all, &few};
    for (const common::SimdPolicy simd : HostKernels()) {
      SparsePartitionRefiner::Options options;
      options.simd = simd;
      options.pool = &pool;
      options.num_threads = 4;
      options.min_parallel_work = 1;
      const SparsePartitionRefiner refiner(joint, instance.crowd, options);
      EXPECT_EQ(refiner.support_size(), joint.support_size());
      EXPECT_EQ(refiner.CommittedEntropyBits(),
                common::Entropy(std::vector<double>{joint.TotalMass()}));
      for (const std::vector<int>* batch : batches) {
        const std::vector<double> cached =
            refiner.EntropiesWithCandidates(*batch);
        for (size_t c = 0; c < batch->size(); ++c) {
          const int fact = (*batch)[c];
          const double scanned = refiner.EntropyWithCandidate(fact);
          EXPECT_EQ(cached[c], scanned) << "seed=" << seed << " f=" << fact;
          const std::vector<int> single = {fact};
          EXPECT_NEAR(scanned,
                      AnswerEntropyBitsBruteForce(joint, single,
                                                  instance.crowd),
                      kTol)
              << "seed=" << seed << " f=" << fact;
        }
      }
    }
  }
}

/// The refiner's committed set is its only size limit: a preprocessed
/// greedy asked for more than kMaxCommittedTasks tasks fails cleanly,
/// naming the cap, instead of falling back to another engine.
TEST(SparseDenseDiffTest, PreprocessedGreedyRejectsKAboveTheRefinerCap) {
  const JointDistribution joint = SeededSparseJoint(24, 100, 7);
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector::Options options;
  options.use_preprocessing = true;
  GreedySelector greedy(options);
  SelectionRequest request;
  request.joint = &joint;
  request.crowd = &crowd;
  request.k = SparsePartitionRefiner::kMaxCommittedTasks + 1;
  auto selection = greedy.Select(request);
  ASSERT_EQ(selection.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(selection.status().message().find(std::to_string(
                SparsePartitionRefiner::kMaxCommittedTasks)),
            std::string::npos)
      << selection.status();
  EXPECT_EQ(SparsePartitionRefiner::kMaxCommittedTasks, 20);
}

/// The scale the whole exercise is for: n = 64 facts and |O| = 10^5
/// support outputs, far beyond any dense 2^n representation. The
/// preprocessed greedy must run and its reported entropies must match the
/// independent marginalize-and-push evaluator on the selected prefix sets.
TEST(SparseDenseDiffTest, SparseGreedyHandlesSixtyFourFacts) {
  const int n = 64;
  const int support = 100000;
  const JointDistribution joint = SeededSparseJoint(n, support, 20170401);
  const CrowdModel crowd = MakeCrowd(0.8);

  GreedySelector::Options options;
  options.use_preprocessing = true;
  GreedySelector greedy(options);
  SelectionRequest request;
  request.joint = &joint;
  request.crowd = &crowd;
  request.k = 6;
  auto selection = greedy.Select(request);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  ASSERT_EQ(selection->tasks.size(), 6u);

  std::set<int> distinct(selection->tasks.begin(), selection->tasks.end());
  EXPECT_EQ(distinct.size(), selection->tasks.size());
  for (int fact : selection->tasks) {
    EXPECT_GE(fact, 0);
    EXPECT_LT(fact, n);
  }
  EXPECT_NEAR(selection->entropy_bits,
              AnswerEntropyBits(joint, selection->tasks, crowd), kTol);
  // Each greedy prefix must add strictly positive entropy.
  double previous = 0.0;
  for (size_t prefix = 1; prefix <= selection->tasks.size(); ++prefix) {
    const std::vector<int> tasks(selection->tasks.begin(),
                                 selection->tasks.begin() +
                                     static_cast<std::ptrdiff_t>(prefix));
    const double h = AnswerEntropyBits(joint, tasks, crowd);
    EXPECT_GT(h, previous) << "prefix=" << prefix;
    previous = h;
  }
}

}  // namespace
}  // namespace crowdfusion::core
