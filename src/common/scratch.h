#ifndef CROWDFUSION_COMMON_SCRATCH_H_
#define CROWDFUSION_COMMON_SCRATCH_H_

#include <cstddef>
#include <vector>

namespace crowdfusion::common {

/// Reusable per-thread scratch buffers for hot paths that would otherwise
/// allocate on every call (the sparse refiner's batched kernel evaluates
/// thousands of candidate tiles per greedy round; a heap round trip per
/// tile dwarfs the scan it serves). Each (thread, slot) pair is one
/// std::vector<double> that grows monotonically and is reused for the life
/// of the thread — ThreadPool workers are long-lived, so after warm-up the
/// request path allocates nothing here.
///
/// Slots keep independent users from aliasing: a caller that needs two
/// live buffers at once (tile accumulators plus the per-candidate cell
/// vector fed to the entropy butterfly) takes two distinct slots. Nested
/// use of the SAME slot on one thread is not supported; add a slot instead.
enum class ScratchSlot {
  /// Sparse refiner: interleaved per-tile cell accumulators.
  kTileSums = 0,
  /// Sparse refiner: one candidate's de-interleaved cell sums (the buffer
  /// the crowd-noise butterfly and entropy run over).
  kCellSums,
  /// Bayes merge: the unnormalized posterior weights of Equation 3.
  kMergeWeights,
  kNumSlots,
};

/// The calling thread's scratch vector for `slot`, resized to `size`
/// elements and zero-filled. The reference stays valid until the same
/// thread asks for the same slot again.
inline std::vector<double>& ZeroedThreadScratch(ScratchSlot slot,
                                                size_t size) {
  thread_local std::vector<double>
      buffers[static_cast<size_t>(ScratchSlot::kNumSlots)];
  std::vector<double>& buffer = buffers[static_cast<size_t>(slot)];
  // assign() reuses capacity: it only touches the allocator when the
  // buffer grows past its high-water mark.
  buffer.assign(size, 0.0);
  return buffer;
}

}  // namespace crowdfusion::common

#endif  // CROWDFUSION_COMMON_SCRATCH_H_
