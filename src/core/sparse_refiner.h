#ifndef CROWDFUSION_CORE_SPARSE_REFINER_H_
#define CROWDFUSION_CORE_SPARSE_REFINER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/crowd_model.h"
#include "core/joint_distribution.h"

namespace crowdfusion::core {

/// Algorithm 2 (the greedy's preprocessing stage) evaluated directly on the
/// sparse output support, without ever materializing the 2^n answer joint.
///
/// The paper partitions the full 2^n answer table; for n >> 20 facts that
/// table does not fit anywhere. But the refined answer
/// marginal of the committed set T is also the output-support marginal
/// pushed through |T| binary symmetric channels, so the partition can be
/// maintained over the |O| support entries instead: each entry carries the
/// id of its refined cell (the truth pattern of the committed tasks, in
/// commit order), a candidate evaluation is one O(|O|) scan that splits
/// every cell by the candidate's judgment bit, and the crowd noise is
/// applied to the resulting 2^(|T|+1) cell vector with the usual
/// O(|T| 2^|T|) butterfly — negligible next to the scan for the k used in
/// practice.
///
/// Layout is struct-of-arrays and the entries are kept counting-sorted by
/// cell id after every commit ("sort by refined cell"), so the hot scan
/// reads three parallel arrays sequentially and its cell accumulator walks
/// monotonically.
///
/// Candidate evaluation is BATCHED: one pass over the support accumulates
/// cell sums for a tile of kCandidateTileWidth candidates at once — the
/// tile extracts each candidate's judgment bit from the same loaded mask,
/// so the memory traffic every candidate used to pay alone (three streamed
/// arrays per scan) is amortized across the whole tile. The inner loop is
/// explicitly vectorized (AVX2 masked accumulation across the tile's
/// lanes, selected by runtime dispatch; a portable scalar tile kernel
/// otherwise). Both kernels make each candidate's floating-point adds in
/// ascending support order — masked lanes add exact +0.0 — so batched,
/// SIMD, scalar, and the one-candidate-at-a-time scan are all
/// bit-identical, machine- and dispatch-independent; the goldens pinned
/// against the pre-batched refiner hold without re-blessing.
///
/// Batch evaluation runs on a common::ThreadPool (reused workers, no
/// per-batch thread spawn): large candidate batches shard by tile, while
/// small batches over very large supports shard the O(|O|) entry scan
/// itself (fixed kEntryShards boundaries, per-shard cell accumulators, one
/// fixed-order reduction). The shared arrays are read-only during
/// evaluation so shards need no synchronization, and all kernel scratch is
/// reused — per-thread for tile accumulators, refiner-owned and
/// double-buffered for the entry shards and the commit sort — so the
/// request path stops allocating after warm-up.
///
/// At T = ∅ nothing is scanned: a candidate's two cells are read from the
/// joint's fact_cell_sums(), summed in the tile scan's entry order, so
/// they are bit-equal to EntropyWithCandidate. The struct-of-arrays copy
/// is built by the first Commit, so a k = 1 greedy never builds it. One
/// value moved with this: few candidates over a very large support at
/// T = ∅ used to take the entry-sharded path and now get the serial value.
///
/// Supports the full n <= JointDistribution::kMaxFacts = 64 fact range.
/// The committed set is capped at kMaxCommittedTasks because the noisy
/// cell vector is dense in 2^(|T|+1).
class SparsePartitionRefiner {
 public:
  struct Options {
    /// Shard cap for batch evaluation. 0 = auto (the pool's worker count
    /// plus the calling thread, capped); 1 = always serial.
    int num_threads = 0;
    /// Minimum support-entries-times-candidates product before a batch
    /// evaluation bothers going parallel.
    int64_t min_parallel_work = int64_t{1} << 16;
    /// Worker pool for parallel evaluation. Borrowed; must outlive the
    /// refiner. nullptr uses the process-wide ThreadPool::Shared().
    common::ThreadPool* pool = nullptr;
    /// Kernel dispatch: kAuto follows the host (and the
    /// CROWDFUSION_DISABLE_SIMD toggles); the forced values exist for the
    /// dispatch differential tests and the scalar-vs-SIMD bench rows.
    common::SimdPolicy simd = common::SimdPolicy::kAuto;
  };

  /// Largest committed-set size |T|; 2^(|T|+1) cells must stay cheap.
  static constexpr int kMaxCommittedTasks = 20;

  /// Fixed shard count for entry-level sharding. A constant (not the pool
  /// size) so the partial-sum reduction order — and with it every entropy
  /// down to the last bit — is machine-independent; the pool merely
  /// executes however many of these shards it can in parallel.
  static constexpr size_t kEntryShards = 8;

  /// Fixed width of one candidate tile (and the interleave stride of the
  /// tile accumulators): 8 doubles = two AVX2 lanesful. Fixed so batch
  /// boundaries never depend on host or thread count — and because every
  /// candidate's adds stay in ascending support order, results do not
  /// depend on the tiling at all; the constant is pinned anyway as part of
  /// the determinism contract.
  static constexpr int kCandidateTileWidth = 8;

  /// Borrows `joint`, as the scheduler borrows its selector: the joint must
  /// outlive the refiner and stay unchanged while it is used. The first
  /// Commit copies the support into the refiner's own (permuted) arrays.
  /// The crowd model is copied by value.
  SparsePartitionRefiner(const JointDistribution& joint,
                         const CrowdModel& crowd, Options options);
  SparsePartitionRefiner(const JointDistribution& joint,
                         const CrowdModel& crowd);

  int num_facts() const { return num_facts_; }
  int64_t support_size() const { return joint_->support_size(); }

  /// H(T ∪ {fact}) in bits, where T is the committed set. One O(|O|) scan.
  double EntropyWithCandidate(int fact) const;

  /// H(T ∪ {fact}) for every fact in `facts`. At T = ∅ it reads the
  /// joint's cell sums, O(|facts|). Otherwise it evaluates batched tiles,
  /// sharded across the pool when the batch is large enough: by tile
  /// (bit-identical to mapping EntropyWithCandidate), or by support entry
  /// when candidates are few but |O| is very large (same values up to the
  /// fixed kEntryShards-way summation order — deterministic and
  /// machine-independent, but not bit-identical to the serial scan).
  std::vector<double> EntropiesWithCandidates(std::span<const int> facts) const;

  /// Adds `fact` to the committed set: refines every cell by its judgment
  /// bit and re-sorts the support by the new cell ids.
  void Commit(int fact);

  /// Entropy of the committed task set's answer marginal, H(T).
  double CommittedEntropyBits() const;

  const std::vector<int>& committed() const { return committed_; }
  /// Number of refined cells, 2^|T| (empty cells included).
  uint32_t num_parts() const { return num_parts_; }

  /// True when this refiner's evaluations dispatch the AVX2 kernel.
  bool simd_active() const { return use_avx2_; }

 private:
  /// Unnoised refined cell masses for T ∪ {fact}: cell (part << 1) | bit.
  std::vector<double> CellSumsWithCandidate(int fact) const;

  /// The batched hot kernel: accumulates cell sums for `width` candidates
  /// (1..kCandidateTileWidth) over support entries [begin, end) into
  /// `tile`, laid out tile[cell * kCandidateTileWidth + lane] and sized
  /// for 2 * num_parts_ cells. Adds, never overwrites — callers zero (or
  /// chain) the accumulators. Dispatches AVX2 or the scalar tile kernel;
  /// both make candidate c's adds in ascending i order, so every lane is
  /// bit-identical to the single-candidate scan over the same range.
  void AccumulateTile(const int* facts, int width, size_t begin, size_t end,
                      double* tile) const;
  void AccumulateTileScalar(const int* facts, int width, size_t begin,
                            size_t end, double* tile) const;
#if CROWDFUSION_SIMD_AVX2_COMPILED
  void AccumulateTileAvx2(const int* facts, int width, size_t begin,
                          size_t end, double* tile) const;
#endif

  /// Evaluates one tile over the whole support with per-thread scratch:
  /// out[c] = H(T ∪ {facts[c]}) for c in [0, width).
  void EvaluateTile(const int* facts, int width, double* out) const;

  /// Entry-sharded EvaluateTile: splits the support scan into `shards`
  /// fixed ranges on the pool and reduces the per-shard tile accumulators
  /// in ascending shard order (the refiner-owned scratch holds the
  /// partials). Deterministic for a fixed shard count.
  void EvaluateTileSharded(const int* facts, int width, int shards,
                           common::ThreadPool& pool, double* out) const;

  /// Crowd-noise butterfly + entropy over one candidate's cell sums,
  /// in place.
  double EntropyFromCellSums(std::vector<double>& sums) const;

  int ResolveThreads(size_t num_candidates) const;

  const JointDistribution* joint_;
  int num_facts_ = 0;
  CrowdModel crowd_;
  Options options_;
  bool use_avx2_ = false;
  // Parallel arrays over the support, sorted by part_of_ value; empty
  // until the first Commit.
  std::vector<uint64_t> masks_;
  std::vector<double> probs_;
  std::vector<uint32_t> part_of_;
  uint32_t num_parts_ = 1;
  std::vector<int> committed_;
  // Reused kernel/commit scratch (not part of logical state, so mutable:
  // the evaluation API is const). `entry_partials_` backs the one
  // entry-sharded evaluation in flight — shards write disjoint slices;
  // the refiner is single-caller like any other non-thread-safe value
  // type, so no lock is needed. The sorted_* triplet double-buffers the
  // commit counting sort: filled, then swapped with the live arrays.
  mutable std::vector<double> entry_partials_;
  std::vector<size_t> cell_start_;
  std::vector<uint64_t> sorted_masks_;
  std::vector<double> sorted_probs_;
  std::vector<uint32_t> sorted_parts_;
};

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_SPARSE_REFINER_H_
