/// Forced-dispatch differentials for the batched selection kernel and the
/// joint summary's cell-sum kernel. For the selection kernel, the
/// scalar tile kernel and the AVX2 tile kernel must produce BIT-IDENTICAL
/// entropies on every path the refiner can take — serial tiles, the
/// tile-sharded batch path, and the fixed-boundary entry-sharded path —
/// because every golden and differential in the repo is pinned down to the
/// last float and dispatch is chosen per host at runtime. Both kernels are
/// forced explicitly (SimdPolicy::kForceScalar / kForceAvx2) so the test
/// exercises them regardless of what kAuto would pick; hosts without AVX2
/// (or builds with CROWDFUSION_DISABLE_SIMD) skip the vector half and
/// still cover the scalar tile kernel against the single-candidate
/// reference scan.

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/greedy_selector.h"
#include "core/sparse_refiner.h"
#include "sparse_test_util.h"

namespace crowdfusion::core {
namespace {

constexpr int kNumSeeds = 64;

CrowdModel MakeCrowd(double pc) {
  auto crowd = CrowdModel::Create(pc);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

std::vector<int> AllFacts(int n) {
  std::vector<int> facts(static_cast<size_t>(n));
  for (int f = 0; f < n; ++f) facts[static_cast<size_t>(f)] = f;
  return facts;
}

TEST(SimdDispatchTest, LevelNamesAndPolicyResolution) {
  EXPECT_STREQ(common::SimdLevelName(common::SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(common::SimdLevelName(common::SimdLevel::kAvx2), "avx2");
  EXPECT_FALSE(common::ResolveSimd(common::SimdPolicy::kForceScalar));
  EXPECT_EQ(common::ResolveSimd(common::SimdPolicy::kAuto),
            common::ActiveSimdLevel() == common::SimdLevel::kAvx2);
#if !CROWDFUSION_SIMD_AVX2_COMPILED
  // Compiled out: nothing may ever dispatch the vector kernel.
  EXPECT_FALSE(common::CpuSupportsAvx2());
  EXPECT_EQ(common::DetectSimdLevel(), common::SimdLevel::kScalar);
#endif
}

TEST(SimdDispatchTest, RefinerReportsItsDispatch) {
  common::Rng rng(7);
  const JointDistribution joint = RandomSparseJoint(10, 60, rng);
  const CrowdModel crowd = MakeCrowd(0.8);
  SparsePartitionRefiner::Options scalar_options;
  scalar_options.simd = common::SimdPolicy::kForceScalar;
  EXPECT_FALSE(
      SparsePartitionRefiner(joint, crowd, scalar_options).simd_active());
  if (common::CpuSupportsAvx2()) {
    SparsePartitionRefiner::Options avx2_options;
    avx2_options.simd = common::SimdPolicy::kForceAvx2;
    EXPECT_TRUE(
        SparsePartitionRefiner(joint, crowd, avx2_options).simd_active());
  }
}

/// Serial batched tiles (full and ragged widths), forced scalar vs forced
/// AVX2, pinned to each other AND to the single-candidate reference scan —
/// all bitwise. Candidate counts sweep 1..n so every ragged final tile
/// width (1..7) occurs across the seeds.
TEST(SimdDispatchTest, SerialTilesBitIdenticalAcrossKernels) {
  if (!common::CpuSupportsAvx2()) {
    GTEST_SKIP() << "host cannot run the AVX2 kernel";
  }
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    common::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
    const int n = 4 + static_cast<int>(seed % 21);  // 4..24
    // support <= min(2^n, 500): RandomSparseJoint draws distinct masks.
    const uint64_t max_support = std::min<uint64_t>(1ULL << n, 500);
    const int support =
        2 + static_cast<int>((seed * 131) % (max_support - 1));
    const JointDistribution joint = RandomSparseJoint(n, support, rng);
    const CrowdModel crowd =
        MakeCrowd(0.55 + 0.1 * static_cast<double>(seed % 4));

    SparsePartitionRefiner::Options scalar_options;
    scalar_options.simd = common::SimdPolicy::kForceScalar;
    SparsePartitionRefiner::Options avx2_options;
    avx2_options.simd = common::SimdPolicy::kForceAvx2;
    SparsePartitionRefiner scalar(joint, crowd, scalar_options);
    SparsePartitionRefiner avx2(joint, crowd, avx2_options);

    const std::vector<int> commits =
        rng.SampleWithoutReplacement(n, 1 + static_cast<int>(seed % 3));
    for (int fact : commits) {
      scalar.Commit(fact);
      avx2.Commit(fact);
    }

    const std::vector<int> facts = AllFacts(n);
    const int width = 1 + static_cast<int>(seed % static_cast<uint64_t>(n));
    const std::span<const int> batch(facts.data(),
                                     static_cast<size_t>(width));
    const std::vector<double> h_scalar =
        scalar.EntropiesWithCandidates(batch);
    const std::vector<double> h_avx2 = avx2.EntropiesWithCandidates(batch);
    ASSERT_EQ(h_scalar.size(), h_avx2.size());
    for (int c = 0; c < width; ++c) {
      const size_t i = static_cast<size_t>(c);
      EXPECT_EQ(h_scalar[i], h_avx2[i])
          << "seed=" << seed << " candidate=" << c;
      // Both equal the one-candidate-at-a-time reference scan.
      EXPECT_EQ(h_scalar[i], scalar.EntropyWithCandidate(facts[i]))
          << "seed=" << seed << " candidate=" << c;
    }
  }
}

/// The two pool-sharded batch paths, kernels forced both ways on a pool
/// with real workers: tile sharding (many candidates) and fixed-boundary
/// entry sharding (few candidates over a large support). min_parallel_work
/// is dropped to 1 so the parallel paths engage even on small instances.
TEST(SimdDispatchTest, ShardedPathsBitIdenticalAcrossKernels) {
  if (!common::CpuSupportsAvx2()) {
    GTEST_SKIP() << "host cannot run the AVX2 kernel";
  }
  common::ThreadPool pool(4);
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    common::Rng rng(seed * 0xD1B54A32D192ED03ULL + 3);
    const int n = 18 + static_cast<int>(seed % 7);  // 18..24
    const JointDistribution joint = RandomSparseJoint(n, 3000, rng);
    const CrowdModel crowd = MakeCrowd(0.8);

    SparsePartitionRefiner::Options scalar_options;
    scalar_options.simd = common::SimdPolicy::kForceScalar;
    scalar_options.pool = &pool;
    scalar_options.num_threads = 4;
    scalar_options.min_parallel_work = 1;
    SparsePartitionRefiner::Options avx2_options = scalar_options;
    avx2_options.simd = common::SimdPolicy::kForceAvx2;
    SparsePartitionRefiner scalar(joint, crowd, scalar_options);
    SparsePartitionRefiner avx2(joint, crowd, avx2_options);
    scalar.Commit(static_cast<int>(seed) % n);
    avx2.Commit(static_cast<int>(seed) % n);

    // facts >= threads: sharded by candidate tile.
    const std::vector<int> many = AllFacts(n);
    const std::vector<double> tile_scalar =
        scalar.EntropiesWithCandidates(many);
    const std::vector<double> tile_avx2 = avx2.EntropiesWithCandidates(many);
    for (size_t c = 0; c < many.size(); ++c) {
      EXPECT_EQ(tile_scalar[c], tile_avx2[c])
          << "seed=" << seed << " candidate=" << c;
    }

    // facts < threads: the fixed-kEntryShards entry-sharded scan.
    const std::vector<int> few = {0, 2, 5};
    const std::vector<double> entry_scalar =
        scalar.EntropiesWithCandidates(few);
    const std::vector<double> entry_avx2 = avx2.EntropiesWithCandidates(few);
    for (size_t c = 0; c < few.size(); ++c) {
      EXPECT_EQ(entry_scalar[c], entry_avx2[c])
          << "seed=" << seed << " candidate=" << c;
    }
  }
}

/// The joint summary's cell-sum kernel, forced both ways: every fact count
/// 1..64 (ragged final registers and passes) over supports of every length
/// from empty upwards, bit for bit.
TEST(SimdDispatchTest, FactCellSumKernelsBitIdentical) {
  if (!common::CpuSupportsAvx2()) {
    GTEST_SKIP() << "host cannot run the AVX2 kernel";
  }
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    common::Rng rng(seed * 0x2545F4914F6CDD1DULL + 17);
    const int n = static_cast<int>(seed);  // 1..64
    const int support = static_cast<int>(
        std::min<uint64_t>(n >= 20 ? 700 : (1ULL << n), 700));
    const JointDistribution joint = RandomSparseJoint(n, support, rng);
    const std::span<const JointDistribution::Entry> entries(joint.entries());
    const size_t length = rng.NextBounded(entries.size() + 1);
    for (const std::span<const JointDistribution::Entry> prefix :
         {entries, entries.first(length)}) {
      std::vector<double> scalar(2 * static_cast<size_t>(n));
      std::vector<double> avx2(2 * static_cast<size_t>(n));
      JointDistribution::AccumulateFactCellSums(
          prefix, n, common::SimdPolicy::kForceScalar, scalar);
      JointDistribution::AccumulateFactCellSums(
          prefix, n, common::SimdPolicy::kForceAvx2, avx2);
      for (size_t c = 0; c < scalar.size(); ++c) {
        EXPECT_EQ(scalar[c], avx2[c]) << "seed=" << seed << " cell=" << c;
      }
    }
    EXPECT_EQ(joint.fact_cell_sums().size(), 2 * static_cast<size_t>(n));
  }
}

/// End to end through the greedy: forced-scalar and forced-AVX2 sparse
/// greedies must pick identical task sets with identical entropies on
/// every seed (the greedy argmax inherits the kernels' bit-identity).
TEST(SimdDispatchTest, GreedySelectionIdenticalAcrossKernels) {
  if (!common::CpuSupportsAvx2()) {
    GTEST_SKIP() << "host cannot run the AVX2 kernel";
  }
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    common::Rng rng(seed * 0xA24BAED4963EE407ULL + 5);
    const int n = 24 + static_cast<int>(seed % 17);  // 24..40
    const JointDistribution joint = RandomSparseJoint(n, 2000, rng);
    const CrowdModel crowd = MakeCrowd(0.8);

    GreedySelector::Options scalar_options;
    scalar_options.use_preprocessing = true;
    scalar_options.simd = common::SimdPolicy::kForceScalar;
    GreedySelector::Options avx2_options = scalar_options;
    avx2_options.simd = common::SimdPolicy::kForceAvx2;
    GreedySelector scalar_greedy(scalar_options);
    GreedySelector avx2_greedy(avx2_options);

    SelectionRequest request;
    request.joint = &joint;
    request.crowd = &crowd;
    request.k = 5;
    auto scalar_sel = scalar_greedy.Select(request);
    auto avx2_sel = avx2_greedy.Select(request);
    ASSERT_TRUE(scalar_sel.ok()) << scalar_sel.status().ToString();
    ASSERT_TRUE(avx2_sel.ok()) << avx2_sel.status().ToString();
    EXPECT_EQ(scalar_sel->tasks, avx2_sel->tasks) << "seed=" << seed;
    EXPECT_EQ(scalar_sel->entropy_bits, avx2_sel->entropy_bits)
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace crowdfusion::core
