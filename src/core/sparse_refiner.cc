#include "core/sparse_refiner.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/scratch.h"

#if CROWDFUSION_SIMD_AVX2_COMPILED
#include <immintrin.h>
#endif

namespace crowdfusion::core {

SparsePartitionRefiner::SparsePartitionRefiner(const JointDistribution& joint,
                                               const CrowdModel& crowd,
                                               Options options)
    : joint_(&joint),
      num_facts_(joint.num_facts()),
      crowd_(crowd),
      options_(options),
      use_avx2_(common::ResolveSimd(options.simd)) {}

SparsePartitionRefiner::SparsePartitionRefiner(const JointDistribution& joint,
                                               const CrowdModel& crowd)
    : SparsePartitionRefiner(joint, crowd, Options()) {}

std::vector<double> SparsePartitionRefiner::CellSumsWithCandidate(
    int fact) const {
  CF_CHECK(fact >= 0 && fact < num_facts_)
      << "candidate fact id out of range: " << fact;
  std::vector<double> sums(static_cast<size_t>(num_parts_) * 2, 0.0);
  if (committed_.empty()) {
    for (const auto& entry : joint_->entries()) {
      sums[(entry.mask >> fact) & 1ULL] += entry.prob;
    }
    return sums;
  }
  const size_t count = masks_.size();
  // The single-candidate reference scan: three sequential array reads and
  // one accumulate whose cell index is monotone in i (entries are sorted
  // by part), branch-free judgment-bit extraction. The batched tile
  // kernels below are pinned bit-for-bit against this loop.
  for (size_t i = 0; i < count; ++i) {
    const size_t cell = (static_cast<size_t>(part_of_[i]) << 1) |
                        ((masks_[i] >> fact) & 1ULL);
    sums[cell] += probs_[i];
  }
  return sums;
}

void SparsePartitionRefiner::AccumulateTile(const int* facts, int width,
                                            size_t begin, size_t end,
                                            double* tile) const {
#if CROWDFUSION_SIMD_AVX2_COMPILED
  // The AVX2 kernel is written for exactly one full tile; ragged final
  // tiles take the scalar kernel (identical bits either way).
  if (use_avx2_ && width == kCandidateTileWidth) {
    AccumulateTileAvx2(facts, width, begin, end, tile);
    return;
  }
#endif
  AccumulateTileScalar(facts, width, begin, end, tile);
}

void SparsePartitionRefiner::AccumulateTileScalar(const int* facts, int width,
                                                  size_t begin, size_t end,
                                                  double* tile) const {
  // One pass over the support for the whole tile: the three streamed
  // arrays are read once per entry instead of once per candidate, and
  // each lane's adds happen in ascending i order — exactly the order of
  // the single-candidate scan, so every lane is bit-identical to it.
  for (size_t i = begin; i < end; ++i) {
    const uint64_t mask = masks_[i];
    const double prob = probs_[i];
    const size_t base = static_cast<size_t>(part_of_[i]) << 1;
    for (int c = 0; c < width; ++c) {
      const size_t cell = base | ((mask >> facts[c]) & 1ULL);
      tile[cell * kCandidateTileWidth + c] += prob;
    }
  }
}

#if CROWDFUSION_SIMD_AVX2_COMPILED
// Vectorized across the tile's candidate lanes: one broadcast mask is
// variable-shifted by each lane's fact id, the compare mask routes the
// broadcast prob to the bit-1 or bit-0 accumulator (masked lanes add an
// exact +0.0), and because entries are sorted by part each cell is one
// contiguous run — the run is accumulated in four registers and flushed
// to the tile once at the run boundary. Per lane the adds are therefore
// still in ascending i order starting from +0.0, with +0.0 identities
// interleaved: bit-identical to the scalar kernel and the reference scan.
// Masking is bitwise AND/ANDNOT, not multiply, so no FMA contraction can
// perturb the sums.
__attribute__((target("avx2"))) void SparsePartitionRefiner::
    AccumulateTileAvx2(const int* facts, int width, size_t begin, size_t end,
                       double* tile) const {
  static_assert(kCandidateTileWidth == 8,
                "AVX2 kernel assumes two 4-lane halves");
  (void)width;  // dispatcher guarantees width == kCandidateTileWidth
  if (begin >= end) return;
  const __m256i shift_lo =
      _mm256_setr_epi64x(facts[0], facts[1], facts[2], facts[3]);
  const __m256i shift_hi =
      _mm256_setr_epi64x(facts[4], facts[5], facts[6], facts[7]);
  const __m256i one = _mm256_set1_epi64x(1);
  __m256d acc0_lo = _mm256_setzero_pd();
  __m256d acc0_hi = _mm256_setzero_pd();
  __m256d acc1_lo = _mm256_setzero_pd();
  __m256d acc1_hi = _mm256_setzero_pd();
  uint32_t run_part = part_of_[begin];
  for (size_t i = begin; i < end; ++i) {
    const uint32_t part = part_of_[i];
    if (part != run_part) {
      // Run boundary: flush the four accumulators into the tile slots of
      // the finished part's two cells. load-add-store (rather than plain
      // store) keeps the kernel correct when a caller splits one part's
      // run across two invocations, as the entry-sharded path does.
      double* slot0 =
          tile + (static_cast<size_t>(run_part) << 1) * kCandidateTileWidth;
      double* slot1 = slot0 + kCandidateTileWidth;
      _mm256_storeu_pd(slot0,
                       _mm256_add_pd(_mm256_loadu_pd(slot0), acc0_lo));
      _mm256_storeu_pd(slot0 + 4,
                       _mm256_add_pd(_mm256_loadu_pd(slot0 + 4), acc0_hi));
      _mm256_storeu_pd(slot1,
                       _mm256_add_pd(_mm256_loadu_pd(slot1), acc1_lo));
      _mm256_storeu_pd(slot1 + 4,
                       _mm256_add_pd(_mm256_loadu_pd(slot1 + 4), acc1_hi));
      acc0_lo = _mm256_setzero_pd();
      acc0_hi = _mm256_setzero_pd();
      acc1_lo = _mm256_setzero_pd();
      acc1_hi = _mm256_setzero_pd();
      run_part = part;
    }
    const __m256i mask = _mm256_set1_epi64x(static_cast<int64_t>(masks_[i]));
    const __m256d prob = _mm256_set1_pd(probs_[i]);
    const __m256i bit_lo =
        _mm256_and_si256(_mm256_srlv_epi64(mask, shift_lo), one);
    const __m256i bit_hi =
        _mm256_and_si256(_mm256_srlv_epi64(mask, shift_hi), one);
    const __m256d sel_lo =
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(bit_lo, one));
    const __m256d sel_hi =
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(bit_hi, one));
    acc1_lo = _mm256_add_pd(acc1_lo, _mm256_and_pd(sel_lo, prob));
    acc1_hi = _mm256_add_pd(acc1_hi, _mm256_and_pd(sel_hi, prob));
    acc0_lo = _mm256_add_pd(acc0_lo, _mm256_andnot_pd(sel_lo, prob));
    acc0_hi = _mm256_add_pd(acc0_hi, _mm256_andnot_pd(sel_hi, prob));
  }
  double* slot0 =
      tile + (static_cast<size_t>(run_part) << 1) * kCandidateTileWidth;
  double* slot1 = slot0 + kCandidateTileWidth;
  _mm256_storeu_pd(slot0, _mm256_add_pd(_mm256_loadu_pd(slot0), acc0_lo));
  _mm256_storeu_pd(slot0 + 4,
                   _mm256_add_pd(_mm256_loadu_pd(slot0 + 4), acc0_hi));
  _mm256_storeu_pd(slot1, _mm256_add_pd(_mm256_loadu_pd(slot1), acc1_lo));
  _mm256_storeu_pd(slot1 + 4,
                   _mm256_add_pd(_mm256_loadu_pd(slot1 + 4), acc1_hi));
}
#endif  // CROWDFUSION_SIMD_AVX2_COMPILED

void SparsePartitionRefiner::EvaluateTile(const int* facts, int width,
                                          double* out) const {
  for (int c = 0; c < width; ++c) {
    CF_CHECK(facts[c] >= 0 && facts[c] < num_facts_)
        << "candidate fact id out of range: " << facts[c];
  }
  const size_t cells = static_cast<size_t>(num_parts_) * 2;
  std::vector<double>& tile = common::ZeroedThreadScratch(
      common::ScratchSlot::kTileSums, cells * kCandidateTileWidth);
  AccumulateTile(facts, width, 0, masks_.size(), tile.data());
  std::vector<double>& sums =
      common::ZeroedThreadScratch(common::ScratchSlot::kCellSums, cells);
  for (int c = 0; c < width; ++c) {
    // De-interleave lane c into the contiguous cell vector the noise
    // butterfly runs over (plain copies, no arithmetic).
    for (size_t cell = 0; cell < cells; ++cell) {
      sums[cell] = tile[cell * kCandidateTileWidth + c];
    }
    out[c] = EntropyFromCellSums(sums);
  }
}

void SparsePartitionRefiner::EvaluateTileSharded(const int* facts, int width,
                                                 int shards,
                                                 common::ThreadPool& pool,
                                                 double* out) const {
  for (int c = 0; c < width; ++c) {
    CF_CHECK(facts[c] >= 0 && facts[c] < num_facts_)
        << "candidate fact id out of range: " << facts[c];
  }
  const size_t count = masks_.size();
  const size_t cells = static_cast<size_t>(num_parts_) * 2;
  const size_t tile_elems = cells * kCandidateTileWidth;
  const size_t per_shard =
      (count + static_cast<size_t>(shards) - 1) / static_cast<size_t>(shards);
  // One tile accumulator per shard, in refiner-owned scratch (assign()
  // reuses capacity). Shard boundaries are fixed by the shard count and
  // shards write disjoint slices, so no synchronization and a
  // deterministic reduction order regardless of which worker ran what.
  entry_partials_.assign(static_cast<size_t>(shards) * tile_elems, 0.0);
  pool.ParallelFor(
      0, shards,
      [this, facts, width, count, per_shard, tile_elems](int64_t shard_begin,
                                                         int64_t shard_end) {
        for (int64_t shard = shard_begin; shard < shard_end; ++shard) {
          const size_t begin = static_cast<size_t>(shard) * per_shard;
          const size_t end = std::min(begin + per_shard, count);
          AccumulateTile(
              facts, width, begin, end,
              entry_partials_.data() + static_cast<size_t>(shard) * tile_elems);
        }
      },
      shards);
  std::vector<double>& sums =
      common::ZeroedThreadScratch(common::ScratchSlot::kCellSums, cells);
  for (int c = 0; c < width; ++c) {
    for (size_t cell = 0; cell < cells; ++cell) {
      // Ascending-shard reduction: the fixed summation order that makes
      // the entry-sharded path machine-independent.
      double total = entry_partials_[cell * kCandidateTileWidth + c];
      for (int shard = 1; shard < shards; ++shard) {
        total += entry_partials_[static_cast<size_t>(shard) * tile_elems +
                                 cell * kCandidateTileWidth + c];
      }
      sums[cell] = total;
    }
    out[c] = EntropyFromCellSums(sums);
  }
}

double SparsePartitionRefiner::EntropyFromCellSums(
    std::vector<double>& sums) const {
  const int k = static_cast<int>(committed_.size());
  crowd_.PushThroughChannel(sums, k + 1);
  return common::Entropy(sums);
}

double SparsePartitionRefiner::EntropyWithCandidate(int fact) const {
  CF_CHECK(static_cast<int>(committed_.size()) < kMaxCommittedTasks)
      << "committed set too large to refine";
  std::vector<double> sums = CellSumsWithCandidate(fact);
  return EntropyFromCellSums(sums);
}

int SparsePartitionRefiner::ResolveThreads(size_t num_candidates) const {
  if (options_.num_threads == 1 || num_candidates == 0) return 1;
  const int64_t work =
      static_cast<int64_t>(masks_.size()) *
      static_cast<int64_t>(num_candidates);
  if (work < options_.min_parallel_work) return 1;
  common::ThreadPool* pool =
      options_.pool == nullptr ? common::ThreadPool::Shared() : options_.pool;
  const int available = pool->num_threads() + 1;  // workers + caller
  const int threads =
      options_.num_threads > 0 ? std::min(options_.num_threads, available)
                               : std::min(available, 8);
  return std::max(1, threads);
}

std::vector<double> SparsePartitionRefiner::EntropiesWithCandidates(
    std::span<const int> facts) const {
  std::vector<double> out(facts.size(), 0.0);
  if (facts.empty()) return out;
  CF_CHECK(static_cast<int>(committed_.size()) < kMaxCommittedTasks)
      << "committed set too large to refine";
  if (committed_.empty()) {
    const std::vector<double>& cells = joint_->fact_cell_sums();
    std::vector<double>& sums =
        common::ZeroedThreadScratch(common::ScratchSlot::kCellSums, 2);
    for (size_t c = 0; c < facts.size(); ++c) {
      CF_CHECK(facts[c] >= 0 && facts[c] < num_facts_)
          << "candidate fact id out of range: " << facts[c];
      std::copy_n(cells.begin() + 2 * facts[c], 2, sums.begin());
      out[c] = EntropyFromCellSums(sums);
    }
    return out;
  }
  const size_t num_tiles =
      (facts.size() + kCandidateTileWidth - 1) / kCandidateTileWidth;
  const auto tile_width = [&facts](size_t tile) {
    return static_cast<int>(std::min<size_t>(
        kCandidateTileWidth,
        facts.size() - tile * kCandidateTileWidth));
  };
  const int threads = ResolveThreads(facts.size());
  if (threads <= 1) {
    for (size_t t = 0; t < num_tiles; ++t) {
      EvaluateTile(facts.data() + t * kCandidateTileWidth, tile_width(t),
                   out.data() + t * kCandidateTileWidth);
    }
    return out;
  }
  common::ThreadPool* pool =
      options_.pool == nullptr ? common::ThreadPool::Shared() : options_.pool;
  if (facts.size() >= static_cast<size_t>(threads)) {
    // Enough candidates to keep every shard busy: shard by tile. Tile
    // boundaries are fixed by kCandidateTileWidth alone — never by the
    // thread count — and evaluations only read the shared arrays, so
    // shards are embarrassingly parallel and the output is identical to
    // the serial loop above, bit for bit.
    pool->ParallelFor(
        0, static_cast<int64_t>(num_tiles),
        [this, &facts, &out, &tile_width](int64_t begin, int64_t end) {
          for (int64_t t = begin; t < end; ++t) {
            const size_t b =
                static_cast<size_t>(t) * kCandidateTileWidth;
            EvaluateTile(facts.data() + b,
                         tile_width(static_cast<size_t>(t)), out.data() + b);
          }
        },
        threads);
    return out;
  }
  // Few candidates over a very large support (the tail of a pruned greedy
  // round): shard the O(|O|) entry scan itself. The shard count is a
  // fixed constant — NOT the pool size — so the floating-point reduction
  // order, and therefore the entropies and any near-tie greedy argmax
  // they feed, are identical on every machine.
  const int entry_shards = static_cast<int>(
      std::min<size_t>(kEntryShards, masks_.size()));
  for (size_t t = 0; t < num_tiles; ++t) {
    EvaluateTileSharded(facts.data() + t * kCandidateTileWidth, tile_width(t),
                        entry_shards, *pool,
                        out.data() + t * kCandidateTileWidth);
  }
  return out;
}

void SparsePartitionRefiner::Commit(int fact) {
  CF_CHECK(fact >= 0 && fact < num_facts_)
      << "committed fact id out of range: " << fact;
  CF_CHECK(static_cast<int>(committed_.size()) < kMaxCommittedTasks)
      << "committed set capped at " << kMaxCommittedTasks << " tasks";
  if (committed_.empty()) {
    for (const auto& entry : joint_->entries()) {
      masks_.push_back(entry.mask);
      probs_.push_back(entry.prob);
    }
    part_of_.assign(masks_.size(), 0);
  }
  const size_t count = masks_.size();
  for (size_t i = 0; i < count; ++i) {
    part_of_[i] = (part_of_[i] << 1) |
                  static_cast<uint32_t>((masks_[i] >> fact) & 1ULL);
  }
  num_parts_ <<= 1;
  committed_.push_back(fact);

  // Restore the sorted-by-cell invariant with a stable counting sort; the
  // cell id space (2^|T|) stays small relative to |O| for any |T| worth
  // refining, and one O(|O| + 2^|T|) pass keeps later scans sequential.
  // The destination arrays are member scratch double-buffered against the
  // live arrays: fill, then swap — no per-commit allocation after the
  // buffers reach their high-water mark.
  cell_start_.assign(static_cast<size_t>(num_parts_) + 1, 0);
  for (size_t i = 0; i < count; ++i) ++cell_start_[part_of_[i] + 1];
  for (size_t c = 1; c < cell_start_.size(); ++c) {
    cell_start_[c] += cell_start_[c - 1];
  }
  sorted_masks_.resize(count);
  sorted_probs_.resize(count);
  sorted_parts_.resize(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t pos = cell_start_[part_of_[i]]++;
    sorted_masks_[pos] = masks_[i];
    sorted_probs_[pos] = probs_[i];
    sorted_parts_[pos] = part_of_[i];
  }
  std::swap(masks_, sorted_masks_);
  std::swap(probs_, sorted_probs_);
  std::swap(part_of_, sorted_parts_);
}

double SparsePartitionRefiner::CommittedEntropyBits() const {
  const int k = static_cast<int>(committed_.size());
  // At T = ∅ the one cell holds the whole mass, summed in entry order.
  std::vector<double> sums(static_cast<size_t>(num_parts_),
                           k == 0 ? joint_->TotalMass() : 0.0);
  const size_t count = masks_.size();
  for (size_t i = 0; i < count; ++i) sums[part_of_[i]] += probs_[i];
  crowd_.PushThroughChannel(sums, k);
  return common::Entropy(sums);
}

}  // namespace crowdfusion::core
