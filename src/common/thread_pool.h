#ifndef CROWDFUSION_COMMON_THREAD_POOL_H_
#define CROWDFUSION_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace crowdfusion::common {

/// Fixed-size worker pool shared by the compute-parallel pieces of the
/// library (sparse-refiner candidate/entry sharding, the CLI's multi-book
/// refine). Replaces the previous pattern of spawning ad-hoc std::threads
/// per batch: workers are started once and reused, so a selector that
/// shards thousands of small candidate batches no longer pays a
/// thread-create/join round trip per batch.
///
/// ParallelFor is deadlock-safe under nesting: the calling thread claims
/// shards itself alongside the workers, so the loop completes even when
/// every worker is busy (e.g. per-book schedulers running on the pool
/// whose selectors shard their scans on the same pool).
class ThreadPool {
 public:
  /// `num_threads <= 0` sizes the pool to the hardware (capped).
  explicit ThreadPool(int num_threads = 0);

  /// Joins the workers. Pending tasks are drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a fire-and-forget task. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Runs `body(shard_begin, shard_end)` over a partition of
  /// [begin, end) into at most `max_shards` contiguous ranges
  /// (0 = one per worker plus the caller) and blocks until every shard
  /// completed. The caller participates, so this never deadlocks and a
  /// zero-worker pool degrades to a serial loop.
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t, int64_t)>& body,
                   int max_shards = 0);

  /// Process-wide pool for callers without their own. Never null; sized to
  /// the hardware on first use.
  static ThreadPool* Shared();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace crowdfusion::common

#endif  // CROWDFUSION_COMMON_THREAD_POOL_H_
