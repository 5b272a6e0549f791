#include "common/simd.h"

#include <cstdlib>

#include "common/logging.h"

namespace crowdfusion::common {

bool CpuSupportsAvx2() {
#if CROWDFUSION_SIMD_AVX2_COMPILED
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

SimdLevel DetectSimdLevel() {
  if (const char* env = std::getenv("CROWDFUSION_DISABLE_SIMD");
      env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0')) {
    return SimdLevel::kScalar;
  }
  return CpuSupportsAvx2() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}

SimdLevel ActiveSimdLevel() {
  // Memoized: the environment toggle is read once, at first dispatch.
  static const SimdLevel level = DetectSimdLevel();
  return level;
}

bool ResolveSimd(SimdPolicy policy) {
  switch (policy) {
    case SimdPolicy::kAuto:
      return ActiveSimdLevel() == SimdLevel::kAvx2;
    case SimdPolicy::kForceScalar:
      return false;
    case SimdPolicy::kForceAvx2:
      CF_CHECK(CpuSupportsAvx2())
          << "SimdPolicy::kForceAvx2 on a host without AVX2";
      return true;
  }
  return false;
}

}  // namespace crowdfusion::common
