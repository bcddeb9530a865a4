// The one runtime ISA switch. Every kernel with hand-written SIMD paths —
// the SpMM layer (kernels/spmm.hpp), the dense products (tensor/ops.hpp)
// and the boosted-ensemble kernel (ml/gradient_boosting.hpp) — dispatches
// on simd_isa(), so a single process-wide tier cap governs them all.
// Every tier produces identical bits by construction; the lower tiers
// exist so tests can prove that on whatever machine they run on.
#pragma once

#include <string>

// x86-64 only: the SSE tier relies on SSE2 being baseline, which does
// not hold for 32-bit x86.
#if defined(__x86_64__)
#define GNAV_SIMD_X86 1
#endif

namespace gnav::support {

/// Cap on the SIMD paths. kAuto resolves to the widest ISA the CPU
/// supports (AVX2 on most x86-64, SSE2 otherwise, portable C++
/// elsewhere).
enum class SimdTier {
  kPortable,
  kSse,
  kAuto,
};

/// Process-wide tier cap (testing and diagnostics; kAuto is the
/// production default). Tiers above what the CPU supports clamp down.
void set_simd_tier(SimdTier tier);
SimdTier simd_tier();

/// The ISA the dispatching kernels run on this host under the cap.
enum class SimdIsa {
  kPortable,
  kSse2,
  kAvx2,
};
SimdIsa simd_isa();

/// simd_isa() as "avx2" | "sse2" | "portable". Diagnostics only — never
/// feed it into estimator features or golden traces (it varies by host;
/// all tiers produce identical bits anyway).
std::string active_simd_isa();

/// Whether the CPU executes AVX2 (false off x86-64).
bool cpu_has_avx2();

}  // namespace gnav::support
