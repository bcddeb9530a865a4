#include "support/simd.hpp"

#include <atomic>

namespace gnav::support {
namespace {

std::atomic<SimdTier> g_simd_tier{SimdTier::kAuto};

}  // namespace

void set_simd_tier(SimdTier tier) {
  g_simd_tier.store(tier, std::memory_order_relaxed);
}

SimdTier simd_tier() { return g_simd_tier.load(std::memory_order_relaxed); }

bool cpu_has_avx2() {
#if defined(GNAV_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

SimdIsa simd_isa() {
#if defined(GNAV_SIMD_X86)
  const SimdTier tier = simd_tier();
  if (tier == SimdTier::kAuto && cpu_has_avx2()) return SimdIsa::kAvx2;
  if (tier != SimdTier::kPortable) return SimdIsa::kSse2;
#endif
  return SimdIsa::kPortable;
}

std::string active_simd_isa() {
  switch (simd_isa()) {
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kSse2:
      return "sse2";
    case SimdIsa::kPortable:
      break;
  }
  return "portable";
}

}  // namespace gnav::support
