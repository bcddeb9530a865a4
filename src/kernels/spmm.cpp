#include "kernels/spmm.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"

#if defined(GNAV_SIMD_X86)
#include <immintrin.h>
#endif

namespace gnav::kernels {
namespace {

using graph::EdgeId;
using graph::NodeId;
using support::SimdIsa;

/// Widest portable feature tile (floats) for the no-SIMD fallback path.
constexpr std::size_t kPortableTile = 16;
/// Edge budget per row partition. Depends only on the graph (never on the
/// thread count), so the partition — and the work each chunk performs —
/// is fixed for a given input.
constexpr std::size_t kChunkWork = 8192;

// ------------------------------------------------------------- scalar ----
// Reference loop: row by row, full feature width per neighbor. The
// accumulation order per (v, j) — self term, neighbors in CSR order, dst
// scale last — is the contract the blocked kernel reproduces bit-exactly.

void spmm_scalar(const graph::CsrGraph& g, const tensor::Tensor& x,
                 tensor::Tensor& y, const SpmmScales& sc) {
  const EdgeId* indptr = g.indptr().data();
  const NodeId* indices = g.indices().data();
  const std::size_t cols = x.cols();
  const float* xd = x.data();
  float* yd = y.data();
  const NodeId n = g.num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    const auto vz = static_cast<std::size_t>(v);
    float* yv = yd + vz * cols;
    if (sc.self_scale != nullptr) {
      const float s = sc.self_scale[vz];
      const float* xv = xd + vz * cols;
      for (std::size_t j = 0; j < cols; ++j) yv[j] = s * xv[j];
    } else {
      for (std::size_t j = 0; j < cols; ++j) yv[j] = 0.0f;
    }
    const EdgeId end = indptr[vz + 1];
    for (EdgeId e = indptr[vz]; e < end; ++e) {
      const auto uz = static_cast<std::size_t>(indices[e]);
      const float* xu = xd + uz * cols;
      if (sc.src_scale != nullptr) {
        const float w = sc.src_scale[uz];
        for (std::size_t j = 0; j < cols; ++j) yv[j] += w * xu[j];
      } else {
        for (std::size_t j = 0; j < cols; ++j) yv[j] += xu[j];
      }
    }
    if (sc.dst_scale != nullptr) {
      const float d = sc.dst_scale[vz];
      for (std::size_t j = 0; j < cols; ++j) yv[j] *= d;
    }
  }
}

// ------------------------------------------------------------ blocked ----
//
// The production kernel. Profiling on the bench graphs showed the naive
// loop is bound by L1 load/store micro-ops (the output row is
// read-modify-written per edge), not by cache misses — the graphs'
// feature matrices sit comfortably in the LLC. The blocked kernel
// therefore accumulates each output row in SIMD registers over
// feature-dim tiles (Y is written exactly once per tile), dispatching at
// runtime to AVX2 (64-float tiles), SSE2 (32-float), or a portable
// fallback. Hub rows whose gathered slice would thrash L1 across
// multi-tile re-scans are binned into a single-pass streaming path.
//
// Bit-exactness with the scalar reference holds because, for every
// output element (v, j), all three ISA paths execute the identical
// operation sequence: self mul, then (mul+)add per neighbor in CSR
// order, then one dst mul. No FMA is ever emitted (the build also pins
// -ffp-contract=off), and IEEE mul/add are deterministic.

/// Portable register-tile pass for the tail/fallback: [j0, j0+width) with
/// width <= kPortableTile.
template <bool HasSrc>
void row_pass_portable(const NodeId* indices, const float* xd, float* yd,
                       std::size_t cols, const SpmmScales& sc,
                       std::size_t vz, EdgeId begin, EdgeId end,
                       std::size_t j0, std::size_t width) {
  float acc[kPortableTile];
  if (sc.self_scale != nullptr) {
    const float s = sc.self_scale[vz];
    const float* xv = xd + vz * cols + j0;
    for (std::size_t t = 0; t < width; ++t) acc[t] = s * xv[t];
  } else {
    for (std::size_t t = 0; t < width; ++t) acc[t] = 0.0f;
  }
  for (EdgeId e = begin; e < end; ++e) {
    const auto uz = static_cast<std::size_t>(indices[e]);
    const float* xu = xd + uz * cols + j0;
    if constexpr (HasSrc) {
      const float w = sc.src_scale[uz];
      for (std::size_t t = 0; t < width; ++t) acc[t] += w * xu[t];
    } else {
      for (std::size_t t = 0; t < width; ++t) acc[t] += xu[t];
    }
  }
  if (sc.dst_scale != nullptr) {
    const float d = sc.dst_scale[vz];
    for (std::size_t t = 0; t < width; ++t) acc[t] *= d;
  }
  float* yv = yd + vz * cols + j0;
  for (std::size_t t = 0; t < width; ++t) yv[t] = acc[t];
}

#if defined(GNAV_SIMD_X86)

/// AVX2 pass over [j0, j0 + 8*NV): NV ymm accumulators held in registers
/// across the whole neighbor loop. mul and add stay separate intrinsics —
/// never fused — to preserve scalar-path bit-exactness.
template <int NV, bool HasSrc>
__attribute__((target("avx2"))) void row_pass_avx2(
    const NodeId* indices, const float* xd, float* yd, std::size_t cols,
    const SpmmScales& sc, std::size_t vz, EdgeId begin, EdgeId end,
    std::size_t j0) {
  __m256 acc[NV];
  if (sc.self_scale != nullptr) {
    const __m256 s = _mm256_set1_ps(sc.self_scale[vz]);
    const float* xv = xd + vz * cols + j0;
#pragma GCC unroll 8
    for (int t = 0; t < NV; ++t) {
      acc[t] = _mm256_mul_ps(s, _mm256_loadu_ps(xv + 8 * t));
    }
  } else {
#pragma GCC unroll 8
    for (int t = 0; t < NV; ++t) acc[t] = _mm256_setzero_ps();
  }
  for (EdgeId e = begin; e < end; ++e) {
    const auto uz = static_cast<std::size_t>(indices[e]);
    const float* xu = xd + uz * cols + j0;
    if constexpr (HasSrc) {
      const __m256 w = _mm256_set1_ps(sc.src_scale[uz]);
#pragma GCC unroll 8
      for (int t = 0; t < NV; ++t) {
        acc[t] = _mm256_add_ps(acc[t],
                               _mm256_mul_ps(w, _mm256_loadu_ps(xu + 8 * t)));
      }
    } else {
#pragma GCC unroll 8
      for (int t = 0; t < NV; ++t) {
        acc[t] = _mm256_add_ps(acc[t], _mm256_loadu_ps(xu + 8 * t));
      }
    }
  }
  if (sc.dst_scale != nullptr) {
    const __m256 d = _mm256_set1_ps(sc.dst_scale[vz]);
#pragma GCC unroll 8
    for (int t = 0; t < NV; ++t) acc[t] = _mm256_mul_ps(acc[t], d);
  }
  float* yv = yd + vz * cols + j0;
#pragma GCC unroll 8
  for (int t = 0; t < NV; ++t) _mm256_storeu_ps(yv + 8 * t, acc[t]);
}

/// SSE2 pass over [j0, j0 + 4*NV) — x86-64 baseline, no dispatch needed.
template <int NV, bool HasSrc>
void row_pass_sse(const NodeId* indices, const float* xd, float* yd,
                  std::size_t cols, const SpmmScales& sc, std::size_t vz,
                  EdgeId begin, EdgeId end, std::size_t j0) {
  __m128 acc[NV];
  if (sc.self_scale != nullptr) {
    const __m128 s = _mm_set1_ps(sc.self_scale[vz]);
    const float* xv = xd + vz * cols + j0;
#pragma GCC unroll 8
    for (int t = 0; t < NV; ++t) {
      acc[t] = _mm_mul_ps(s, _mm_loadu_ps(xv + 4 * t));
    }
  } else {
#pragma GCC unroll 8
    for (int t = 0; t < NV; ++t) acc[t] = _mm_setzero_ps();
  }
  for (EdgeId e = begin; e < end; ++e) {
    const auto uz = static_cast<std::size_t>(indices[e]);
    const float* xu = xd + uz * cols + j0;
    if constexpr (HasSrc) {
      const __m128 w = _mm_set1_ps(sc.src_scale[uz]);
#pragma GCC unroll 8
      for (int t = 0; t < NV; ++t) {
        acc[t] = _mm_add_ps(acc[t], _mm_mul_ps(w, _mm_loadu_ps(xu + 4 * t)));
      }
    } else {
#pragma GCC unroll 8
      for (int t = 0; t < NV; ++t) {
        acc[t] = _mm_add_ps(acc[t], _mm_loadu_ps(xu + 4 * t));
      }
    }
  }
  if (sc.dst_scale != nullptr) {
    const __m128 d = _mm_set1_ps(sc.dst_scale[vz]);
#pragma GCC unroll 8
    for (int t = 0; t < NV; ++t) acc[t] = _mm_mul_ps(acc[t], d);
  }
  float* yv = yd + vz * cols + j0;
#pragma GCC unroll 8
  for (int t = 0; t < NV; ++t) _mm_storeu_ps(yv + 4 * t, acc[t]);
}

#endif  // GNAV_SIMD_X86

/// Widest single-pass tile the ISA path covers; feature dims at or below
/// it never re-scan a neighbor list.
std::size_t single_pass_cols(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAvx2:
      return 64;
    case SimdIsa::kSse2:
      return 32;
    case SimdIsa::kPortable:
      break;
  }
  return kPortableTile;
}

/// Register-tiled row: the feature dim is covered by the widest available
/// register passes, re-scanning the (short) neighbor list per pass.
template <bool HasSrc>
void blocked_row_register_tiled(const EdgeId* indptr, const NodeId* indices,
                                const float* xd, float* yd, std::size_t cols,
                                const SpmmScales& sc, NodeId v, SimdIsa isa) {
  const auto vz = static_cast<std::size_t>(v);
  const EdgeId begin = indptr[vz];
  const EdgeId end = indptr[vz + 1];
  std::size_t j0 = 0;
#if defined(GNAV_SIMD_X86)
  if (isa == SimdIsa::kAvx2) {
    for (; j0 + 64 <= cols; j0 += 64) {
      row_pass_avx2<8, HasSrc>(indices, xd, yd, cols, sc, vz, begin, end, j0);
    }
    for (; j0 + 32 <= cols; j0 += 32) {
      row_pass_avx2<4, HasSrc>(indices, xd, yd, cols, sc, vz, begin, end, j0);
    }
    for (; j0 + 8 <= cols; j0 += 8) {
      row_pass_avx2<1, HasSrc>(indices, xd, yd, cols, sc, vz, begin, end, j0);
    }
  } else if (isa == SimdIsa::kSse2) {
    for (; j0 + 32 <= cols; j0 += 32) {
      row_pass_sse<8, HasSrc>(indices, xd, yd, cols, sc, vz, begin, end, j0);
    }
    for (; j0 + 16 <= cols; j0 += 16) {
      row_pass_sse<4, HasSrc>(indices, xd, yd, cols, sc, vz, begin, end, j0);
    }
    for (; j0 + 4 <= cols; j0 += 4) {
      row_pass_sse<1, HasSrc>(indices, xd, yd, cols, sc, vz, begin, end, j0);
    }
  }
#else
  (void)isa;
#endif
  for (; j0 < cols; j0 += kPortableTile) {
    const std::size_t width = std::min(kPortableTile, cols - j0);
    row_pass_portable<HasSrc>(indices, xd, yd, cols, sc, vz, begin, end, j0,
                              width);
  }
}

/// Streaming path for hub rows in the multi-tile regime: one pass over
/// the neighbor list accumulating the full feature width into an
/// L1-resident scratch row, so the gathered slice is read exactly once.
template <bool HasSrc>
void blocked_row_streaming(const EdgeId* indptr, const NodeId* indices,
                           const float* xd, float* yd, std::size_t cols,
                           const SpmmScales& sc, NodeId v, float* scratch) {
  const auto vz = static_cast<std::size_t>(v);
  if (sc.self_scale != nullptr) {
    const float s = sc.self_scale[vz];
    const float* xv = xd + vz * cols;
    for (std::size_t j = 0; j < cols; ++j) scratch[j] = s * xv[j];
  } else {
    for (std::size_t j = 0; j < cols; ++j) scratch[j] = 0.0f;
  }
  const EdgeId end = indptr[vz + 1];
  for (EdgeId e = indptr[vz]; e < end; ++e) {
    const auto uz = static_cast<std::size_t>(indices[e]);
    const float* xu = xd + uz * cols;
    if constexpr (HasSrc) {
      const float w = sc.src_scale[uz];
      for (std::size_t j = 0; j < cols; ++j) scratch[j] += w * xu[j];
    } else {
      for (std::size_t j = 0; j < cols; ++j) scratch[j] += xu[j];
    }
  }
  float* yv = yd + vz * cols;
  if (sc.dst_scale != nullptr) {
    const float d = sc.dst_scale[vz];
    for (std::size_t j = 0; j < cols; ++j) yv[j] = d * scratch[j];
  } else {
    for (std::size_t j = 0; j < cols; ++j) yv[j] = scratch[j];
  }
}

/// Edge-balanced row partition (chunk c covers rows [bounds[c],
/// bounds[c+1])) plus the heavy-first chunk schedule. A pure function of
/// the graph — never of the thread count or feature dim.
struct Partition {
  std::vector<NodeId> bounds;
  std::vector<std::size_t> order;
};

Partition make_partition(const graph::CsrGraph& g) {
  Partition part;
  const NodeId n = g.num_nodes();
  const EdgeId* indptr = g.indptr().data();
  part.bounds.push_back(0);
  std::vector<std::size_t> work;
  std::size_t acc = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto vz = static_cast<std::size_t>(v);
    acc += static_cast<std::size_t>(indptr[vz + 1] - indptr[vz]) + 1;
    if (acc >= kChunkWork) {
      part.bounds.push_back(v + 1);
      work.push_back(acc);
      acc = 0;
    }
  }
  if (part.bounds.back() != n) {
    part.bounds.push_back(n);
    work.push_back(acc);
  }
  // Heavy chunks first: a power-law hub row lands in (and often fills) its
  // own chunk; scheduling it early lets the light tail pack around it
  // instead of leaving one worker grinding the hub after the rest drained.
  part.order.resize(work.size());
  std::iota(part.order.begin(), part.order.end(), std::size_t{0});
  std::stable_sort(part.order.begin(), part.order.end(),
                   [&work](std::size_t a, std::size_t b) {
                     return work[a] > work[b];
                   });
  return part;
}

/// Degree binning: in the multi-tile regime (cols above the widest
/// single pass), rows whose gathered X slice would overflow this budget
/// on re-scan take the streaming path instead. Sized to a conservative
/// L2 share — re-gathering a slice this small is cheap, and on skewed
/// graphs only the extreme hub rows fall back to streaming.
constexpr std::size_t kRegisterPathBytes = 256 * 1024;

template <bool HasSrc>
void blocked_chunk(const EdgeId* indptr, const NodeId* indices,
                   const float* xd, float* yd, std::size_t cols,
                   const SpmmScales& sc, NodeId r0, NodeId r1,
                   float* scratch, SimdIsa isa) {
  const bool multi_tile = cols > single_pass_cols(isa);
  const auto degree_cutoff = static_cast<EdgeId>(
      std::max<std::size_t>(1, kRegisterPathBytes / (cols * sizeof(float))));
  for (NodeId v = r0; v < r1; ++v) {
    const auto vz = static_cast<std::size_t>(v);
    const EdgeId deg = indptr[vz + 1] - indptr[vz];
    if (multi_tile && deg > degree_cutoff) {
      blocked_row_streaming<HasSrc>(indptr, indices, xd, yd, cols, sc, v,
                                    scratch);
    } else {
      blocked_row_register_tiled<HasSrc>(indptr, indices, xd, yd, cols, sc,
                                         v, isa);
    }
  }
}

void spmm_blocked(const graph::CsrGraph& g, const tensor::Tensor& x,
                  tensor::Tensor& y, const SpmmScales& sc,
                  support::ThreadPool* pool) {
  const NodeId n = g.num_nodes();
  if (n == 0) return;
  const EdgeId* indptr = g.indptr().data();
  const NodeId* indices = g.indices().data();
  const std::size_t cols = x.cols();
  const float* xd = x.data();
  float* yd = y.data();
  // Resolved once, so every row of the call runs the same ISA path.
  const SimdIsa isa = support::simd_isa();

  const Partition part = make_partition(g);
  support::ThreadPool& exec = pool != nullptr ? *pool : support::global_pool();

  exec.parallel_for(0, part.order.size(), [&](std::size_t slot) {
    const std::size_t c = part.order[slot];
    const NodeId r0 = part.bounds[c];
    const NodeId r1 = part.bounds[c + 1];
    // Hub-row scratch accumulator; allocated per chunk, reused per row.
    std::vector<float> scratch(cols);
    if (sc.src_scale != nullptr) {
      blocked_chunk<true>(indptr, indices, xd, yd, cols, sc, r0, r1,
                          scratch.data(), isa);
    } else {
      blocked_chunk<false>(indptr, indices, xd, yd, cols, sc, r0, r1,
                           scratch.data(), isa);
    }
  });
}

}  // namespace

void spmm(const graph::CsrGraph& g, const tensor::Tensor& x,
          tensor::Tensor& y, const SpmmScales& scales, SpmmImpl impl,
          support::ThreadPool* pool) {
  GNAV_CHECK(x.rows() == static_cast<std::size_t>(g.num_nodes()),
             "spmm: feature rows (" + std::to_string(x.rows()) +
                 ") != num_nodes (" + std::to_string(g.num_nodes()) + ")");
  GNAV_CHECK(y.same_shape(x), "spmm: output shape " + y.shape_str() +
                                  " != input shape " + x.shape_str());
  GNAV_CHECK(x.size() == 0 || y.data() != x.data(),
             "spmm: output must not alias input");
  if (x.size() == 0) return;
  switch (impl) {
    case SpmmImpl::kScalar:
      spmm_scalar(g, x, y, scales);
      return;
    case SpmmImpl::kBlocked:
      spmm_blocked(g, x, y, scales, pool);
      return;
  }
}

}  // namespace gnav::kernels
