// Dense linear-algebra kernels over Tensor. Shapes are validated with
// GNAV_CHECK.
//
// The three products (matmul, matmul_at_b, matmul_a_bt) have two tiers
// behind one signature, picked by support/simd.hpp's process-wide cap:
//
//   portable — plain row-major loops (ikj for matmul, a dot product per
//              element for matmul_a_bt). Every tier below kAuto, and any
//              CPU without AVX2, runs these; they are the reference.
//   AVX2     — register-tiled paths, under kAuto on an AVX2 CPU. matmul
//              holds up to 64 columns of a row of C in 8 ymm over the
//              whole inner loop; matmul_at_b reads A in place in blocks
//              of 4 rows x 16 columns of C, over ranges of batch rows
//              that stay cache-hot; matmul_a_bt transposes its (weight)
//              B and runs matmul's row kernel. A partial last vector is
//              loaded and stored through a lane mask.
//
// Bit contract: both tiers give identical bits. Every output element
// runs the same operation sequence — each product rounded to float, then
// added, inner index ascending, from a +0 start. No FMA, and tiles split
// only the rows and columns of C, never the inner sum.
//
// Zero-skip rule: matmul and matmul_at_b skip a zero (or -0) A entry, so
// 0 * inf there contributes nothing; matmul_a_bt does not skip, so there
// 0 * inf gives NaN. The AVX2 paths skip without a branch (the product is
// ANDed with an `a != 0` lane mask), which is exact because adding +0
// never changes an accumulator that started at +0.
//
// dropout and relu_backward have the same two tiers under the same cap;
// their portable loops are the reference. The AVX2 paths select without
// a branch, ANDing each lane with a mask so it keeps its bits or becomes
// +0:
//
//   dropout       — takes exactly one Rng::next_u64 draw per element, in
//                   index order, drawn in blocks of at most 256 through
//                   Rng::fill_u64 (the last block draws only what
//                   remains), so the Rng ends where the reference leaves
//                   it. An element drops when (u >> 11) < ceil(p * 2^53),
//                   which is exactly the reference's uniform() < p: both
//                   sides of that compare are exact. Output and mask are
//                   written straight into fresh tensors. p == 0 draws
//                   nothing on either tier.
//   relu_backward — keeps grad where !(z <= 0), an unordered compare: a
//                   NaN z keeps its gradient and -0 drops it, as in the
//                   reference.
//
// The products are single-threaded on purpose: training already runs
// inside pool workers in serving and profile collection, and on a shared
// 4-vCPU host four threads each running one copy of the same loop took
// 1.0-4.4x one thread's wall (4 to 0.9 cores' worth), varying from run to
// run, so a row-parallel split has no gain that can be measured there.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace gnav::tensor {

/// C = A * B  with A:[m x k], B:[k x n].
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A^T * B with A:[k x m], B:[k x n] -> [m x n] (weight gradients).
Tensor matmul_at_b(const Tensor& a, const Tensor& b);

/// C = A * B^T with A:[m x k], B:[n x k] -> [m x n] (input gradients).
Tensor matmul_a_bt(const Tensor& a, const Tensor& b);

Tensor transpose(const Tensor& a);

/// Element-wise helpers; `axpy` computes y += alpha * x in place.
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor hadamard(const Tensor& a, const Tensor& b);
void add_inplace(Tensor& y, const Tensor& x);
void axpy(Tensor& y, float alpha, const Tensor& x);
void scale_inplace(Tensor& a, float alpha);

/// Broadcasts bias:[1 x n] over each row of a:[m x n] in place.
void add_row_bias_inplace(Tensor& a, const Tensor& bias);
/// Column-sum of `grad`:[m x n] -> [1 x n] (bias gradient).
Tensor column_sum(const Tensor& grad);

/// Activations (with their backward companions taking pre-activation z).
Tensor relu(const Tensor& z);
Tensor relu_backward(const Tensor& grad_out, const Tensor& z);
Tensor elu(const Tensor& z, float alpha = 1.0f);
Tensor elu_backward(const Tensor& grad_out, const Tensor& z,
                    float alpha = 1.0f);
Tensor leaky_relu(const Tensor& z, float slope);
Tensor leaky_relu_backward(const Tensor& grad_out, const Tensor& z,
                           float slope);

/// Row-wise softmax (numerically stabilized).
Tensor softmax_rows(const Tensor& logits);

/// Per-row argmax -> class indices.
std::vector<int> argmax_rows(const Tensor& a);

/// Gathers the given rows of `src` into a new tensor (feature loading).
Tensor gather_rows(const Tensor& src, const std::vector<std::int64_t>& rows);

/// Inverted-dropout: zeroes entries with prob p and rescales survivors by
/// 1/(1-p); `mask` records survivors for the backward pass.
Tensor dropout(const Tensor& a, float p, Rng& rng, Tensor* mask);
Tensor dropout_backward(const Tensor& grad_out, const Tensor& mask);

}  // namespace gnav::tensor
