/// The per-round Equation 3 merge allocates nothing once warm: the
/// likelihood table lives on the stack, the weights in per-thread scratch,
/// and the joint is rewritten in place (entries, their logs, H(F), mass and
/// cell sums).
/// Pinned with a global operator-new hook that counts only while the test
/// thread has counting switched on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/random.h"
#include "core/bayes.h"
#include "sparse_test_util.h"

namespace {
thread_local bool g_counting = false;
std::atomic<int64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size) {
  if (g_counting) g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

// GCC's -Wmismatched-new-delete pattern-matches the free() below against
// the replaced operator new at inlined call sites and mis-fires: every
// pointer these deletes receive came from the malloc-backed operators
// above, so the pairing is exact.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace crowdfusion::core {
namespace {

TEST(MergeAllocTest, WarmedMergeInPlaceAllocatesNothing) {
  auto crowd = CrowdModel::Create(0.8);
  ASSERT_TRUE(crowd.ok());
  common::Rng rng(11);
  for (const int n : {10, 64}) {
    SCOPED_TRACE(n);
    JointDistribution joint = RandomSparseJoint(n, n == 10 ? 1000 : 5000, rng);
    // The answer sets are built before counting starts; the answer to
    // fact 0 alternates so the joint stays near where it started.
    AnswerSet yes{{0, 3, 7}, {true, false, true}};
    AnswerSet no{{0, 3, 7}, {false, false, true}};
    ASSERT_TRUE(MergeAnswersInPlace(joint, yes, *crowd).ok());  // warm-up
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting = true;
    bool all_ok = true;
    for (int round = 0; round < 64; ++round) {
      all_ok &= MergeAnswersInPlace(joint, round % 2 == 0 ? no : yes, *crowd)
                    .ok();
    }
    g_counting = false;
    EXPECT_TRUE(all_ok);
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0)
        << "a warmed in-place merge allocated";
    EXPECT_TRUE(joint.IsNormalized(1e-9));
  }
}

}  // namespace
}  // namespace crowdfusion::core
