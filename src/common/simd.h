#ifndef CROWDFUSION_COMMON_SIMD_H_
#define CROWDFUSION_COMMON_SIMD_H_

/// Runtime SIMD dispatch for the hot kernels (the sparse refiner's batched
/// cell-accumulation scan). Kernels come in pairs — a portable scalar tile
/// kernel and an explicitly vectorized one — and MUST produce bit-identical
/// results: every differential and golden in the repo is pinned down to the
/// last float, so dispatch may change speed, never bits. The helpers here
/// only answer "which kernel may run on this host"; the bit-equality proof
/// lives in tests/core/simd_dispatch_test.cc.
///
/// Three gates stack, strictest first:
///  * compile time: -DCROWDFUSION_DISABLE_SIMD=ON (or a non-x86 / MSVC
///    toolchain) compiles the vector kernels out entirely;
///  * environment: CROWDFUSION_DISABLE_SIMD=1 in the process environment
///    forces scalar dispatch at startup without a rebuild;
///  * cpuid: hosts without AVX2 fall back to scalar automatically.

/// True when the AVX2 kernels are compiled into this binary at all.
#if !defined(CROWDFUSION_DISABLE_SIMD) && \
    (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define CROWDFUSION_SIMD_AVX2_COMPILED 1
#else
#define CROWDFUSION_SIMD_AVX2_COMPILED 0
#endif

namespace crowdfusion::common {

enum class SimdLevel {
  kScalar,
  kAvx2,
};

/// True when this host's CPU can execute the AVX2 kernels (false whenever
/// they were compiled out).
bool CpuSupportsAvx2();

/// Uncached detection: compile-time gate, then the
/// CROWDFUSION_DISABLE_SIMD environment toggle, then cpuid.
SimdLevel DetectSimdLevel();

/// DetectSimdLevel() memoized at first use; what kAuto callers dispatch on.
SimdLevel ActiveSimdLevel();

/// Per-kernel dispatch request, carried in hot-path Options structs. kAuto
/// follows ActiveSimdLevel(); the forced values exist so tests can run both
/// kernels explicitly regardless of host CPU (forcing AVX2 on a host
/// without it is a programming error, guarded by the caller via
/// CpuSupportsAvx2()).
enum class SimdPolicy {
  kAuto,
  kForceScalar,
  kForceAvx2,
};

/// Resolves a policy against this host: true = run the AVX2 kernel.
bool ResolveSimd(SimdPolicy policy);

}  // namespace crowdfusion::common

#endif  // CROWDFUSION_COMMON_SIMD_H_
