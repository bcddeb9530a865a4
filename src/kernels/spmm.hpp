// gnav::kernels — the sparse-aggregation kernel layer.
//
// Every GNN aggregation in this codebase (sum / mean / GCN-normalized /
// mean-transpose) is one weighted CSR SpMM:
//
//   Y[v] = dst_scale[v] * ( self_scale[v] * X[v]
//                           + sum_{u in N(v)} src_scale[u] * X[u] )
//
// with any of the three scale vectors optional. The layer ships two
// interchangeable implementations behind this single entry point, picked
// by its `impl` argument. The layer holds no selection state of its own:
// the compute backend that calls it (compute/backend.hpp) owns the
// choice.
//
//   kScalar  — the naive per-edge reference loop (one thread, row by row,
//              full feature width per neighbor). This is the semantic
//              ground truth the tests compare against.
//   kBlocked — the production kernel: feature-dim register tiling (each
//              output row accumulates in SIMD registers over 64/32-float
//              tiles and is written once per tile, instead of being
//              read-modify-written per edge), runtime ISA dispatch
//              (AVX2 → SSE2 → portable, capped by support/simd.hpp's
//              process-wide tier), degree binning that routes hub rows
//              through a single-pass streaming accumulator when the
//              feature dim needs multiple tiles, and an edge-balanced
//              fixed row partition executed on the thread pool with heavy
//              partitions scheduled first so power-law hub rows cannot
//              serialize a chunk.
//
// Determinism contract (enforced by test_kernels.cpp): for every (v, j)
// both implementations accumulate contributions in exactly the same order
// — self term first, then neighbors in CSR order, then the dst scale —
// so outputs are BIT-IDENTICAL between implementations and at any thread
// count. The golden-trace suite and the estimator corpus rely on this.
//
// Like nn/aggregate.hpp, the transpose-style uses (mean_transpose) assume
// the symmetric edge sets every sampler in this library emits.
#pragma once

#include <cstddef>

#include "graph/csr_graph.hpp"
#include "tensor/tensor.hpp"

namespace gnav::support {
class ThreadPool;
}

namespace gnav::kernels {

/// Which of the two implementations a call runs: cpu-scalar passes
/// kScalar, cpu-blocked kBlocked.
enum class SpmmImpl {
  kScalar,
  kBlocked,
};

/// Optional per-vertex scale vectors (length num_nodes each, or null):
///   src_scale  — weight applied to each gathered neighbor row,
///   dst_scale  — post-sum scale of the output row,
///   self_scale — adds self_scale[v] * X[v] before the neighbor sum.
struct SpmmScales {
  const float* src_scale = nullptr;
  const float* dst_scale = nullptr;
  const float* self_scale = nullptr;
};

/// Y = weighted-SpMM(g, X). `y` must have X's shape and is overwritten;
/// it must not alias `x`. `pool` is used only by kBlocked (null selects
/// the global pool; inside a pool worker the kernel runs inline).
void spmm(const graph::CsrGraph& g, const tensor::Tensor& x,
          tensor::Tensor& y, const SpmmScales& scales, SpmmImpl impl,
          support::ThreadPool* pool = nullptr);

}  // namespace gnav::kernels
