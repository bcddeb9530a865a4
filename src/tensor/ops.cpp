#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/simd.hpp"

#if defined(GNAV_SIMD_X86)
#include <immintrin.h>
#endif

namespace gnav::tensor {

namespace {

// ------------------------------------------------------------ reference --
// The loops every tier below AVX2 runs, and the semantic ground truth of
// the AVX2 paths. C arrives zero-filled.

void matmul_portable(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    const float* ai = a.row(i);
    float* ci = c.row(i);
    for (std::size_t p = 0; p < k; ++p) {
      const float av = ai[p];
      if (av == 0.0f) continue;
      const float* bp = b.row(p);
      for (std::size_t j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

void matmul_at_b_portable(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t k = a.rows();
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t p = 0; p < k; ++p) {
    const float* ap = a.row(p);
    const float* bp = b.row(p);
    for (std::size_t i = 0; i < m; ++i) {
      const float av = ap[i];
      if (av == 0.0f) continue;
      float* ci = c.row(i);
      for (std::size_t j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

void matmul_a_bt_portable(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  for (std::size_t i = 0; i < m; ++i) {
    const float* ai = a.row(i);
    float* ci = c.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      const float* bj = b.row(j);
      float s = 0.0f;
      for (std::size_t p = 0; p < k; ++p) s += ai[p] * bj[p];
      ci[j] = s;
    }
  }
}

#if defined(GNAV_SIMD_X86)
// ----------------------------------------------------------------- AVX2 --
//
// Register-tiled paths that give every output element the reference's
// exact operation sequence. mul and add stay separate intrinsics, never
// fused (the build also pins -ffp-contract=off). Tiles partition the rows
// and columns of C, never the p sum. A zero A entry is skipped without a
// branch: its products are ANDed to +0 through an `a != 0` lane mask
// (unordered compare, so a NaN entry is kept), and adding +0 leaves the
// accumulator unchanged — it starts at +0, and a round-to-nearest sum is
// -0 only for (-0) + (-0), so it is never -0.

/// Width of the last (possibly partial) vector covering `width` columns.
constexpr std::size_t last_lanes(std::size_t width) {
  return width - 8 * ((width - 1) / 8);
}

/// Lanes [0, lanes) set, lanes in [1, 8].
__attribute__((target("avx2"))) inline __m256i lane_mask(std::size_t lanes) {
  static constexpr int kRamp[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                    0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kRamp + 8 - lanes));
}

/// Vector t of an NV-vector row slice; the last one reads only the lanes
/// of `mask` when Masked, so no tail read leaves the row.
template <int NV, bool Masked>
__attribute__((target("avx2"))) inline __m256 load_vec(const float* p, int t,
                                                       __m256i mask) {
  if (Masked && t == NV - 1) return _mm256_maskload_ps(p + 8 * t, mask);
  return _mm256_loadu_ps(p + 8 * t);
}

template <int NV, bool Masked>
__attribute__((target("avx2"))) inline void store_vec(float* p, int t,
                                                      __m256i mask, __m256 v) {
  if (Masked && t == NV - 1) {
    _mm256_maskstore_ps(p + 8 * t, mask, v);
  } else {
    _mm256_storeu_ps(p + 8 * t, v);
  }
}

/// C[0:MR, 0:w) += sum_{p in [p0, p1)} A(r, p) * B[p, 0:w), where A(r, p)
/// is a[r * a_row + p * a_p] (so A or A^T, read in place) and w covers NV
/// vectors, the last with `lanes` lanes. The MR x NV accumulators are
/// loaded from C, stay in registers over the p range and are stored
/// back: the same sum carried on, so splitting p into ranges changes no
/// bit.
template <int MR, int NV, bool Masked, bool SkipZeroA>
__attribute__((target("avx2"))) void gemm_block_avx2(
    const float* a, std::size_t a_row, std::size_t a_p, const float* b,
    std::size_t ldb, std::size_t p0, std::size_t p1, float* c,
    std::size_t ldc, std::size_t lanes) {
  const __m256i mask = lane_mask(lanes);
  const __m256 zero = _mm256_setzero_ps();
  __m256 acc[MR][NV];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 8
    for (int t = 0; t < NV; ++t) {
      acc[r][t] = load_vec<NV, Masked>(c + r * ldc, t, mask);
    }
  }
  for (std::size_t p = p0; p < p1; ++p) {
    const float* ap = a + p * a_p;
    const float* bp = b + p * ldb;
    __m256 bv[NV];
#pragma GCC unroll 8
    for (int t = 0; t < NV; ++t) bv[t] = load_vec<NV, Masked>(bp, t, mask);
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + r * a_row);
      const __m256 keep = _mm256_cmp_ps(av, zero, _CMP_NEQ_UQ);
#pragma GCC unroll 8
      for (int t = 0; t < NV; ++t) {
        __m256 prod = _mm256_mul_ps(av, bv[t]);
        if constexpr (SkipZeroA) prod = _mm256_and_ps(prod, keep);
        acc[r][t] = _mm256_add_ps(acc[r][t], prod);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 8
    for (int t = 0; t < NV; ++t) {
      store_vec<NV, Masked>(c + r * ldc, t, mask, acc[r][t]);
    }
  }
}

/// Operands of one gemm_block_avx2 call, less its shape.
struct BlockArgs {
  const float* a;
  std::size_t a_row;
  std::size_t a_p;
  const float* b;
  std::size_t ldb;
  std::size_t p0;
  std::size_t p1;
  float* c;
  std::size_t ldc;
  std::size_t lanes;
};

/// gemm_block_avx2, masking the last vector only when it is partial.
template <int MR, int NV, bool SkipZeroA>
void run_block(const BlockArgs& x) {
  if (x.lanes == 8) {
    gemm_block_avx2<MR, NV, false, SkipZeroA>(x.a, x.a_row, x.a_p, x.b, x.ldb,
                                              x.p0, x.p1, x.c, x.ldc, x.lanes);
  } else {
    gemm_block_avx2<MR, NV, true, SkipZeroA>(x.a, x.a_row, x.a_p, x.b, x.ldb,
                                             x.p0, x.p1, x.c, x.ldc, x.lanes);
  }
}

/// C[m x n] = A[m x k] * B[k x n] (dense row-major) for a column block of
/// nv (in [NV, 8]) vectors: one row of C at a time, all of its column
/// tiles in registers for the whole p loop.
template <bool SkipZeroA, int NV = 1>
void gemm_cols_avx2(std::size_t nv, const float* a, std::size_t m,
                    std::size_t k, const float* b, std::size_t n, float* c,
                    std::size_t lanes) {
  if constexpr (NV < 8) {
    if (nv != NV) {
      gemm_cols_avx2<SkipZeroA, NV + 1>(nv, a, m, k, b, n, c, lanes);
      return;
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    run_block<1, NV, SkipZeroA>({a + i * k, k, 1, b, n, 0, k, c + i * n, n,
                                 lanes});
  }
}

/// Column blocks of up to 64: 8 ymm accumulators per row.
template <bool SkipZeroA>
void gemm_avx2(const float* a, std::size_t m, std::size_t k, const float* b,
               std::size_t n, float* c) {
  for (std::size_t j0 = 0; j0 < n; j0 += 64) {
    const std::size_t w = std::min<std::size_t>(64, n - j0);
    gemm_cols_avx2<SkipZeroA>((w + 7) / 8, a, m, k, b + j0, n, c + j0,
                              last_lanes(w));
  }
}

/// Rows of C per matmul_at_b register block (x 16 columns).
constexpr std::size_t kAtBRows = 4;
/// Batch rows per p range: A's and B's slices of a range stay cache-hot
/// while every C block of the range consumes them.
constexpr std::size_t kAtBRange = 256;

/// Runs an at_b block of mr (in [MR, kAtBRows]) rows and nv (1 or 2)
/// vectors.
template <int MR = 1>
void at_b_block(std::size_t mr, std::size_t nv, const BlockArgs& x) {
  if constexpr (MR < static_cast<int>(kAtBRows)) {
    if (mr != MR) {
      at_b_block<MR + 1>(mr, nv, x);
      return;
    }
  }
  if (nv == 2) {
    run_block<MR, 2, true>(x);
  } else {
    run_block<MR, 1, true>(x);
  }
}

/// C[m x n] = A[k x m]^T * B[k x n], reading A in place: a transposed
/// copy of a batch-sized activation would raise peak memory.
void matmul_at_b_avx2(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t k = a.rows();
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t p0 = 0; p0 < k; p0 += kAtBRange) {
    const std::size_t p1 = std::min(k, p0 + kAtBRange);
    for (std::size_t i0 = 0; i0 < m; i0 += kAtBRows) {
      for (std::size_t j0 = 0; j0 < n; j0 += 16) {
        const std::size_t w = std::min<std::size_t>(16, n - j0);
        at_b_block(std::min(kAtBRows, m - i0), (w + 7) / 8,
                   {a.data() + i0, 1, m, b.data() + j0, n, p0, p1,
                    c.data() + i0 * n + j0, n, last_lanes(w)});
      }
    }
  }
}

// Elementwise selects. Each output lane is either its input's bits or
// +0, chosen by ANDing with a lane mask, so no lane takes a branch and
// no value is rounded that the reference does not round.

/// Dropout's draws per bulk Rng call.
constexpr std::size_t kDropoutBlock = 256;

/// Drop lanes for 8 elements from their 8 draws: all ones where
/// (u >> 11) < threshold. A signed 64-bit compare is exact here, since
/// neither side exceeds 2^53; each 64-bit lane's low half is then packed
/// into the 32-bit lane of its element.
__attribute__((target("avx2"))) inline __m256 drop_lanes(
    const std::uint64_t* u, __m256i threshold) {
  const __m256i lo = _mm256_srli_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u)), 11);
  const __m256i hi = _mm256_srli_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u + 4)), 11);
  // [lo0 lo1 hi0 hi1 | lo2 lo3 hi2 hi3] in 32-bit lanes ...
  const __m256 packed = _mm256_shuffle_ps(
      _mm256_castsi256_ps(_mm256_cmpgt_epi64(threshold, lo)),
      _mm256_castsi256_ps(_mm256_cmpgt_epi64(threshold, hi)),
      _MM_SHUFFLE(2, 0, 2, 0));
  // ... then its 64-bit pairs reordered to elements 0..7.
  return _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(packed),
                                                _MM_SHUFFLE(3, 1, 2, 0)));
}

/// out[i] = drop ? +0 : a[i] * scale, and mask[i] = drop ? +0 : scale
/// when mask is set, where drop is (u_i >> 11) < threshold for the i-th
/// draw of `rng`: one draw per element, in index order.
__attribute__((target("avx2"))) void dropout_avx2(const float* a,
                                                  std::size_t n, float scale,
                                                  std::uint64_t threshold,
                                                  Rng& rng, float* out,
                                                  float* mask) {
  std::uint64_t draws[kDropoutBlock] = {};
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256i vthreshold =
      _mm256_set1_epi64x(static_cast<long long>(threshold));
  for (std::size_t b0 = 0; b0 < n; b0 += kDropoutBlock) {
    const std::size_t len = std::min(kDropoutBlock, n - b0);
    rng.fill_u64({draws, len});
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      const __m256 drop = drop_lanes(draws + i, vthreshold);
      const __m256 kept = _mm256_mul_ps(_mm256_loadu_ps(a + b0 + i), vscale);
      _mm256_storeu_ps(out + b0 + i, _mm256_andnot_ps(drop, kept));
      if (mask != nullptr) {
        _mm256_storeu_ps(mask + b0 + i, _mm256_andnot_ps(drop, vscale));
      }
    }
    for (; i < len; ++i) {
      const bool drop = (draws[i] >> 11) < threshold;
      out[b0 + i] = drop ? 0.0f : a[b0 + i] * scale;
      if (mask != nullptr) mask[b0 + i] = drop ? 0.0f : scale;
    }
  }
}

/// out[i] = z[i] <= 0 ? +0 : grad[i]. The keep lanes come from the
/// unordered `!(z <= 0)` compare, so a NaN z keeps its gradient and -0
/// drops it, as in the reference.
__attribute__((target("avx2"))) void relu_backward_avx2(const float* grad,
                                                        const float* z,
                                                        std::size_t n,
                                                        float* out) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 keep =
        _mm256_cmp_ps(_mm256_loadu_ps(z + i), zero, _CMP_NLE_UQ);
    _mm256_storeu_ps(out + i, _mm256_and_ps(_mm256_loadu_ps(grad + i), keep));
  }
  for (; i < n; ++i) out[i] = z[i] <= 0.0f ? 0.0f : grad[i];
}

bool use_avx2() { return support::simd_isa() == support::SimdIsa::kAvx2; }

#endif  // GNAV_SIMD_X86

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  GNAV_CHECK(a.cols() == b.rows(),
             "matmul shape mismatch " + a.shape_str() + " * " + b.shape_str());
  Tensor c(a.rows(), b.cols());
#if defined(GNAV_SIMD_X86)
  if (use_avx2()) {
    gemm_avx2<true>(a.data(), a.rows(), a.cols(), b.data(), b.cols(),
                    c.data());
    return c;
  }
#endif
  matmul_portable(a, b, c);
  return c;
}

Tensor matmul_at_b(const Tensor& a, const Tensor& b) {
  GNAV_CHECK(a.rows() == b.rows(),
             "matmul_at_b shape mismatch " + a.shape_str() + " , " +
                 b.shape_str());
  Tensor c(a.cols(), b.cols());
#if defined(GNAV_SIMD_X86)
  if (use_avx2()) {
    matmul_at_b_avx2(a, b, c);
    return c;
  }
#endif
  matmul_at_b_portable(a, b, c);
  return c;
}

Tensor matmul_a_bt(const Tensor& a, const Tensor& b) {
  GNAV_CHECK(a.cols() == b.cols(),
             "matmul_a_bt shape mismatch " + a.shape_str() + " , " +
                 b.shape_str());
  Tensor c(a.rows(), b.rows());
#if defined(GNAV_SIMD_X86)
  if (use_avx2()) {
    // B is a weight (at most hidden x hidden); its transpose turns the
    // product into matmul's row kernel, without the zero skip.
    const Tensor bt = transpose(b);
    gemm_avx2<false>(a.data(), a.rows(), a.cols(), bt.data(), bt.cols(),
                     c.data());
    return c;
  }
#endif
  matmul_a_bt_portable(a, b, c);
  return c;
}

Tensor transpose(const Tensor& a) {
  Tensor t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  GNAV_CHECK(a.same_shape(b), std::string(op) + " shape mismatch " +
                                  a.shape_str() + " vs " + b.shape_str());
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor c = a;
  for (std::size_t i = 0; i < c.size(); ++i) c.data()[i] += b.data()[i];
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor c = a;
  for (std::size_t i = 0; i < c.size(); ++i) c.data()[i] -= b.data()[i];
  return c;
}

Tensor hadamard(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "hadamard");
  Tensor c = a;
  for (std::size_t i = 0; i < c.size(); ++i) c.data()[i] *= b.data()[i];
  return c;
}

void add_inplace(Tensor& y, const Tensor& x) {
  check_same_shape(y, x, "add_inplace");
  for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] += x.data()[i];
}

void axpy(Tensor& y, float alpha, const Tensor& x) {
  check_same_shape(y, x, "axpy");
  for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] += alpha * x.data()[i];
}

void scale_inplace(Tensor& a, float alpha) {
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] *= alpha;
}

void add_row_bias_inplace(Tensor& a, const Tensor& bias) {
  GNAV_CHECK(bias.rows() == 1 && bias.cols() == a.cols(),
             "bias must be [1 x cols], got " + bias.shape_str());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    float* ai = a.row(i);
    const float* b = bias.row(0);
    for (std::size_t j = 0; j < a.cols(); ++j) ai[j] += b[j];
  }
}

Tensor column_sum(const Tensor& grad) {
  Tensor out(1, grad.cols());
  for (std::size_t i = 0; i < grad.rows(); ++i) {
    const float* gi = grad.row(i);
    for (std::size_t j = 0; j < grad.cols(); ++j) out.at(0, j) += gi[j];
  }
  return out;
}

Tensor relu(const Tensor& z) {
  Tensor out = z;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::max(0.0f, out.data()[i]);
  }
  return out;
}

Tensor relu_backward(const Tensor& grad_out, const Tensor& z) {
  check_same_shape(grad_out, z, "relu_backward");
#if defined(GNAV_SIMD_X86)
  if (use_avx2()) {
    Tensor out(grad_out.rows(), grad_out.cols());
    relu_backward_avx2(grad_out.data(), z.data(), out.size(), out.data());
    return out;
  }
#endif
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (z.data()[i] <= 0.0f) g.data()[i] = 0.0f;
  }
  return g;
}

Tensor elu(const Tensor& z, float alpha) {
  Tensor out = z;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float x = out.data()[i];
    if (x < 0.0f) out.data()[i] = alpha * (std::exp(x) - 1.0f);
  }
  return out;
}

Tensor elu_backward(const Tensor& grad_out, const Tensor& z, float alpha) {
  check_same_shape(grad_out, z, "elu_backward");
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const float x = z.data()[i];
    if (x < 0.0f) g.data()[i] *= alpha * std::exp(x);
  }
  return g;
}

Tensor leaky_relu(const Tensor& z, float slope) {
  Tensor out = z;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float x = out.data()[i];
    if (x < 0.0f) out.data()[i] = slope * x;
  }
  return out;
}

Tensor leaky_relu_backward(const Tensor& grad_out, const Tensor& z,
                           float slope) {
  check_same_shape(grad_out, z, "leaky_relu_backward");
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (z.data()[i] < 0.0f) g.data()[i] *= slope;
  }
  return g;
}

Tensor softmax_rows(const Tensor& logits) {
  Tensor out = logits;
  for (std::size_t i = 0; i < out.rows(); ++i) {
    float* row = out.row(i);
    float mx = row[0];
    for (std::size_t j = 1; j < out.cols(); ++j) mx = std::max(mx, row[j]);
    float total = 0.0f;
    for (std::size_t j = 0; j < out.cols(); ++j) {
      row[j] = std::exp(row[j] - mx);
      total += row[j];
    }
    const float inv = 1.0f / std::max(total, 1e-20f);
    for (std::size_t j = 0; j < out.cols(); ++j) row[j] *= inv;
  }
  return out;
}

std::vector<int> argmax_rows(const Tensor& a) {
  std::vector<int> out(a.rows(), 0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* row = a.row(i);
    int best = 0;
    for (std::size_t j = 1; j < a.cols(); ++j) {
      if (row[j] > row[static_cast<std::size_t>(best)]) {
        best = static_cast<int>(j);
      }
    }
    out[i] = best;
  }
  return out;
}

Tensor gather_rows(const Tensor& src, const std::vector<std::int64_t>& rows) {
  Tensor out(rows.size(), src.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto r = rows[i];
    GNAV_CHECK(r >= 0 && static_cast<std::size_t>(r) < src.rows(),
               "gather_rows index out of range");
    std::copy_n(src.row(static_cast<std::size_t>(r)), src.cols(), out.row(i));
  }
  return out;
}

Tensor dropout(const Tensor& a, float p, Rng& rng, Tensor* mask) {
  GNAV_CHECK(p >= 0.0f && p < 1.0f, "dropout p must be in [0,1)");
#if defined(GNAV_SIMD_X86)
  if (p > 0.0f && use_avx2()) {
    // uniform() < p compares (u >> 11) * 2^-53 with p, both exact, so it
    // is the integer test (u >> 11) < ceil(p * 2^53).
    const auto threshold =
        static_cast<std::uint64_t>(std::ceil(static_cast<double>(p) * 0x1p53));
    Tensor out(a.rows(), a.cols());
    if (mask != nullptr) *mask = Tensor(a.rows(), a.cols());
    dropout_avx2(a.data(), a.size(), 1.0f / (1.0f - p), threshold, rng,
                 out.data(), mask != nullptr ? mask->data() : nullptr);
    return out;
  }
#endif
  Tensor out = a;
  if (mask != nullptr) *mask = Tensor(a.rows(), a.cols());
  if (p == 0.0f) {
    if (mask != nullptr) mask->fill(1.0f);
    return out;
  }
  const float scale = 1.0f / (1.0f - p);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (rng.bernoulli(p)) {
      out.data()[i] = 0.0f;
      if (mask != nullptr) mask->data()[i] = 0.0f;
    } else {
      out.data()[i] *= scale;
      if (mask != nullptr) mask->data()[i] = scale;
    }
  }
  return out;
}

Tensor dropout_backward(const Tensor& grad_out, const Tensor& mask) {
  return hadamard(grad_out, mask);
}

}  // namespace gnav::tensor
