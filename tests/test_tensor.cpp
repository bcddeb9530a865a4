// Tests for the dense tensor substrate: shapes, kernels, activations,
// softmax, dropout, and bit-exact agreement between the matmul variants
// and between the portable and AVX2 tiers of the products, dropout and
// the ReLU gradient.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/simd.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace gnav::tensor {
namespace {

Tensor make(std::size_t r, std::size_t c, std::initializer_list<float> vals) {
  Tensor t(r, c);
  std::size_t i = 0;
  for (float v : vals) t.data()[i++] = v;
  return t;
}

TEST(Tensor, ConstructionAndFill) {
  Tensor t(2, 3, 1.5f);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_FLOAT_EQ(t.at(1, 2), 1.5f);
  t.zero();
  EXPECT_DOUBLE_EQ(t.sum(), 0.0);
  EXPECT_EQ(t.shape_str(), "[2 x 3]");
}

TEST(Tensor, GlorotBoundsAndDeterminism) {
  Rng a(5);
  Rng b(5);
  const Tensor x = Tensor::glorot(16, 48, a);
  const Tensor y = Tensor::glorot(16, 48, b);
  const double limit = std::sqrt(6.0 / (16 + 48));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::abs(x.data()[i]), limit);
    EXPECT_FLOAT_EQ(x.data()[i], y.data()[i]);
  }
}

TEST(Ops, MatmulKnownResult) {
  const Tensor a = make(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor b = make(3, 2, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
  EXPECT_THROW(matmul(a, a), Error);
}

/// Pins the process-wide SIMD tier for one scope, restoring kAuto.
class TierScope {
 public:
  explicit TierScope(support::SimdTier tier) { support::set_simd_tier(tier); }
  ~TierScope() { support::set_simd_tier(support::SimdTier::kAuto); }
  TierScope(const TierScope&) = delete;
  TierScope& operator=(const TierScope&) = delete;
};

bool bit_equal(const Tensor& x, const Tensor& y) {
  return x.same_shape(y) &&
         (x.size() == 0 ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

using Product = Tensor (*)(const Tensor&, const Tensor&);

struct Variant {
  const char* name;
  Product fn;
};

constexpr Variant kVariants[] = {
    {"matmul", &matmul}, {"matmul_at_b", &matmul_at_b},
    {"matmul_a_bt", &matmul_a_bt}};

/// fn(a, b) under kPortable and under kAuto (the register-tiled paths on
/// an AVX2 CPU) must give the same bits.
void expect_tiers_agree(const Variant& v, const Tensor& a, const Tensor& b,
                        const std::string& what) {
  Tensor portable;
  {
    TierScope scope(support::SimdTier::kPortable);
    portable = v.fn(a, b);
  }
  const Tensor tiled = v.fn(a, b);
  EXPECT_TRUE(bit_equal(portable, tiled)) << v.name << " " << what;
}

TEST(Ops, MatmulVariantsAgreeWithExplicitTranspose) {
  // Every variant runs one operation sequence per output element (products
  // rounded to float, added with p ascending from +0), so on finite
  // inputs the transposed variants equal matmul on an explicit transpose
  // exactly, under every tier.
  Rng rng(9);
  const Tensor a = Tensor::uniform(7, 5, -1, 1, rng);
  const Tensor b = Tensor::uniform(7, 4, -1, 1, rng);
  const Tensor c = Tensor::uniform(6, 5, -1, 1, rng);
  for (const support::SimdTier tier :
       {support::SimdTier::kPortable, support::SimdTier::kAuto}) {
    TierScope scope(tier);
    EXPECT_TRUE(bit_equal(matmul_at_b(a, b), matmul(transpose(a), b)));
    EXPECT_TRUE(bit_equal(matmul_a_bt(c, a), matmul(c, transpose(a))));
  }
  expect_tiers_agree(kVariants[0], c, transpose(a), "[6x5]*[5x7]");
  expect_tiers_agree(kVariants[1], a, b, "[7x5]^T*[7x4]");
  expect_tiers_agree(kVariants[2], c, a, "[6x5]*[7x5]^T");
}

/// [r x c] operand, allocated at exactly r*c floats so a tail overread
/// trips ASan: about 60% exact zeros (a tenth of them -0), some
/// subnormals, the rest uniform in [-1, 1).
Tensor sparse_operand(std::size_t r, std::size_t c, Rng& rng) {
  Tensor t = Tensor::uniform(r, c, -1.0f, 1.0f, rng);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double u = rng.uniform();
    if (u < 0.54) {
      t.data()[i] = 0.0f;
    } else if (u < 0.60) {
      t.data()[i] = -0.0f;
    } else if (u < 0.63) {
      t.data()[i] = (u < 0.615 ? 1.0f : -1.0f) * 3e-39f;
    }
  }
  return t;
}

TEST(Ops, MatmulTiersBitIdenticalOnEveryTileAndTail) {
  if (!support::cpu_has_avx2()) {
    GTEST_SKIP() << "no AVX2 on this CPU: only the portable loops run";
  }
  // -NaN is the x86 default NaN, the one 0 * inf yields, so every NaN a
  // sum can carry has the same bits whichever operand it came from.
  const float kNonFinite[] = {std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::quiet_NaN()};
  Rng rng(31);
  for (const std::size_t rows : {0u, 1u, 5u, 7u, 13u, 300u}) {
    for (const std::size_t inner : {0u, 1u, 5u, 64u, 300u}) {
      for (const std::size_t cols : {0u, 1u, 7u, 8u, 9u, 12u, 15u, 16u, 17u,
                                     33u, 63u, 64u, 65u, 129u}) {
        const std::string what = std::to_string(rows) + "x" +
                                 std::to_string(inner) + "x" +
                                 std::to_string(cols);
        // At inner index `hot` every A entry is zero and every B entry is
        // inf or NaN: the zero skip keeps matmul and matmul_at_b finite
        // there, while matmul_a_bt (no skip) turns each sum into NaN. A
        // NaN A entry in the last row is never skipped: that row is NaN.
        const std::size_t hot = inner / 2;
        const bool nan_row = rows > 1 && inner > 1;
        Tensor a = sparse_operand(rows, inner, rng);       // A  [m x k]
        Tensor at = sparse_operand(inner, rows, rng);      // A  [k x m]
        Tensor b = sparse_operand(inner, cols, rng);       // B  [k x n]
        Tensor bt = sparse_operand(cols, inner, rng);      // B  [n x k]
        if (inner > 0) {
          for (std::size_t i = 0; i < rows; ++i) {
            a.at(i, hot) = (i % 2 == 0) ? 0.0f : -0.0f;
            at.at(hot, i) = (i % 2 == 0) ? -0.0f : 0.0f;
          }
          for (std::size_t j = 0; j < cols; ++j) {
            b.at(hot, j) = kNonFinite[j % 3];
            bt.at(j, hot) = kNonFinite[(j + 1) % 3];
          }
        }
        if (nan_row) {
          a.at(rows - 1, (hot + 1) % inner) = kNonFinite[2];
          at.at((hot + 1) % inner, rows - 1) = kNonFinite[2];
        }
        expect_tiers_agree(kVariants[0], a, b, what);
        expect_tiers_agree(kVariants[1], at, b, what);
        expect_tiers_agree(kVariants[2], a, bt, what);
        if (inner == 0) continue;
        const Tensor skip = matmul(a, b);
        const Tensor skip_t = matmul_at_b(at, b);
        const Tensor no_skip = matmul_a_bt(a, bt);
        for (std::size_t i = 0; i < skip.size(); ++i) {
          const bool nan = nan_row && i / cols == rows - 1;
          ASSERT_EQ(std::isnan(skip.data()[i]), nan) << "matmul " << what;
          ASSERT_EQ(std::isnan(skip_t.data()[i]), nan)
              << "matmul_at_b " << what;
          ASSERT_TRUE(std::isfinite(skip.data()[i]) || nan) << what;
          ASSERT_TRUE(std::isfinite(skip_t.data()[i]) || nan) << what;
          ASSERT_TRUE(std::isnan(no_skip.data()[i])) << "matmul_a_bt " << what;
        }
      }
    }
  }
}

TEST(Ops, ElementwiseAndAxpy) {
  const Tensor a = make(1, 3, {1, 2, 3});
  const Tensor b = make(1, 3, {4, 5, 6});
  EXPECT_FLOAT_EQ(add(a, b).at(0, 2), 9.0f);
  EXPECT_FLOAT_EQ(sub(b, a).at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(hadamard(a, b).at(0, 1), 10.0f);
  Tensor y = a;
  axpy(y, 2.0f, b);
  EXPECT_FLOAT_EQ(y.at(0, 0), 9.0f);
  scale_inplace(y, 0.5f);
  EXPECT_FLOAT_EQ(y.at(0, 0), 4.5f);
  Tensor z = a;
  EXPECT_THROW(add_inplace(z, Tensor(2, 2)), Error);
}

TEST(Ops, BiasBroadcastAndColumnSum) {
  Tensor a = make(2, 2, {1, 2, 3, 4});
  const Tensor bias = make(1, 2, {10, 20});
  add_row_bias_inplace(a, bias);
  EXPECT_FLOAT_EQ(a.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(a.at(1, 1), 24.0f);
  const Tensor cs = column_sum(a);
  EXPECT_FLOAT_EQ(cs.at(0, 0), 11.0f + 13.0f);
  EXPECT_FLOAT_EQ(cs.at(0, 1), 22.0f + 24.0f);
}

TEST(Ops, ActivationsAndBackward) {
  const Tensor z = make(1, 4, {-2, -0.5, 0.5, 2});
  const Tensor r = relu(z);
  EXPECT_FLOAT_EQ(r.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(r.at(0, 3), 2.0f);
  const Tensor g = make(1, 4, {1, 1, 1, 1});
  const Tensor rb = relu_backward(g, z);
  EXPECT_FLOAT_EQ(rb.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(rb.at(0, 2), 1.0f);

  const Tensor e = elu(z);
  EXPECT_NEAR(e.at(0, 0), std::exp(-2.0f) - 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(e.at(0, 3), 2.0f);
  const Tensor eb = elu_backward(g, z);
  EXPECT_NEAR(eb.at(0, 1), std::exp(-0.5f), 1e-6);
  EXPECT_FLOAT_EQ(eb.at(0, 2), 1.0f);

  const Tensor l = leaky_relu(z, 0.1f);
  EXPECT_FLOAT_EQ(l.at(0, 0), -0.2f);
  const Tensor lb = leaky_relu_backward(g, z, 0.1f);
  EXPECT_FLOAT_EQ(lb.at(0, 0), 0.1f);
  EXPECT_FLOAT_EQ(lb.at(0, 3), 1.0f);
}

TEST(Ops, SoftmaxRowsNormalized) {
  const Tensor logits = make(2, 3, {1, 2, 3, 1000, 1000, 1000});
  const Tensor p = softmax_rows(logits);
  for (std::size_t r = 0; r < 2; ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < 3; ++c) total += p.at(r, c);
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
  EXPECT_GT(p.at(0, 2), p.at(0, 1));
  EXPECT_NEAR(p.at(1, 0), 1.0 / 3.0, 1e-5);  // stable at huge logits
}

TEST(Ops, ArgmaxAndGather) {
  const Tensor a = make(3, 2, {1, 5, 9, 2, 4, 4});
  const auto am = argmax_rows(a);
  EXPECT_EQ(am, (std::vector<int>{1, 0, 0}));  // tie -> first
  const Tensor g = gather_rows(a, {2, 0});
  EXPECT_FLOAT_EQ(g.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(g.at(1, 1), 5.0f);
  EXPECT_THROW(gather_rows(a, {3}), Error);
}

TEST(Ops, DropoutMaskAndScaling) {
  Rng rng(21);
  Tensor ones = Tensor::ones(50, 40);
  Tensor mask;
  const float p = 0.4f;
  const Tensor dropped = dropout(ones, p, rng, &mask);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < dropped.size(); ++i) {
    if (dropped.data()[i] == 0.0f) {
      ++zeros;
      EXPECT_FLOAT_EQ(mask.data()[i], 0.0f);
    } else {
      EXPECT_NEAR(dropped.data()[i], 1.0f / (1.0f - p), 1e-5);
    }
  }
  const double frac = static_cast<double>(zeros) / dropped.size();
  EXPECT_NEAR(frac, p, 0.05);
  // E[dropout(x)] = x (inverted dropout)
  EXPECT_NEAR(dropped.sum() / dropped.size(), 1.0, 0.08);
  // backward applies the identical mask
  const Tensor grad = dropout_backward(ones, mask);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_FLOAT_EQ(grad.data()[i], mask.data()[i]);
  }
  EXPECT_THROW(dropout(ones, 1.0f, rng, nullptr), Error);
}

TEST(Ops, DropoutZeroProbIsIdentity) {
  Rng rng(22);
  const Tensor x = Tensor::uniform(4, 4, -1, 1, rng);
  Tensor mask;
  const Tensor y = dropout(x, 0.0f, rng, &mask);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_FLOAT_EQ(y.data()[i], x.data()[i]);
    EXPECT_FLOAT_EQ(mask.data()[i], 1.0f);
  }
}

/// Element counts for the elementwise tier sweeps: every tail of an
/// 8-lane vector, both sides of dropout's 256-draw blocks, and the hidden
/// activation of a products batch (7301 x 64).
std::vector<std::pair<std::size_t, std::size_t>> elementwise_shapes() {
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  for (std::size_t n = 0; n <= 17; ++n) shapes.emplace_back(n, 1);
  for (const std::size_t n : {255u, 256u, 257u, 511u, 512u, 513u}) {
    shapes.emplace_back(n, 1);
  }
  shapes.emplace_back(7301, 64);
  return shapes;
}

/// [r x c] operand, allocated at exactly r*c floats so a tail overread
/// trips ASan: uniform in [-1, 1) with about a third of the entries
/// special — +0, -0, +inf, -inf, NaNs of both signs (one with a payload,
/// one signaling) and subnormals of both signs.
Tensor special_operand(std::size_t r, std::size_t c, Rng& rng) {
  const float kSpecial[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::bit_cast<float>(std::uint32_t{0x7fc01234}),
                            std::numeric_limits<float>::signaling_NaN(),
                            3e-39f,
                            -3e-39f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min()};
  Tensor t = Tensor::uniform(r, c, -1.0f, 1.0f, rng);
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (rng.uniform() < 0.35) {
      t.data()[i] = kSpecial[rng.uniform_index(std::size(kSpecial))];
    }
  }
  return t;
}

TEST(Ops, DropoutTiersBitIdentical) {
  if (!support::cpu_has_avx2()) {
    GTEST_SKIP() << "no AVX2 on this CPU: only the portable loop runs";
  }
  // Same output, same mask, and the Rng left at the same state: the AVX2
  // path takes one draw per element in index order, as the reference does.
  Rng data_rng(41);
  std::uint64_t seed = 1000;
  for (const auto& [rows, cols] : elementwise_shapes()) {
    const Tensor a = special_operand(rows, cols, data_rng);
    for (const float p : {0.0f, 1e-7f, 0.1f, 0.25f, 0.3f, 0.5f, 0.9f}) {
      for (const bool with_mask : {false, true}) {
        const std::string what = a.shape_str() + " p " + std::to_string(p) +
                                 (with_mask ? " masked" : "");
        Rng rng_portable(++seed);
        Rng rng_auto(seed);
        Tensor out_portable;
        Tensor mask_portable;
        {
          TierScope scope(support::SimdTier::kPortable);
          out_portable = dropout(a, p, rng_portable,
                                 with_mask ? &mask_portable : nullptr);
        }
        Tensor mask_auto;
        const Tensor out_auto =
            dropout(a, p, rng_auto, with_mask ? &mask_auto : nullptr);
        ASSERT_TRUE(bit_equal(out_portable, out_auto)) << what;
        ASSERT_TRUE(bit_equal(mask_portable, mask_auto)) << what;
        ASSERT_EQ(rng_portable.next_u64(), rng_auto.next_u64()) << what;
      }
    }
  }
}

TEST(Ops, ReluBackwardTiersBitIdentical) {
  if (!support::cpu_has_avx2()) {
    GTEST_SKIP() << "no AVX2 on this CPU: only the portable loop runs";
  }
  // The reference zeroes the gradient where z <= 0: a NaN z keeps it
  // (NaN <= 0 is false), -0 and negative subnormals drop it, and a kept
  // gradient, NaN payloads included, keeps its bits.
  Rng rng(43);
  for (const auto& [rows, cols] : elementwise_shapes()) {
    const Tensor grad = special_operand(rows, cols, rng);
    const Tensor z = special_operand(rows, cols, rng);
    Tensor portable;
    {
      TierScope scope(support::SimdTier::kPortable);
      portable = relu_backward(grad, z);
    }
    ASSERT_TRUE(bit_equal(portable, relu_backward(grad, z)))
        << grad.shape_str();
  }
}

}  // namespace
}  // namespace gnav::tensor
