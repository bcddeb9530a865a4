// Sparse neighborhood aggregation (the Aggregate of Eq. 1), expressed on
// top of the gnav::compute backend layer (compute/backend.hpp). Which
// backend executes — the scalar reference or the blocked cache-tiled CPU
// kernel — is resolved per call from compute::current_backend(); both
// built-in CPU backends produce bit-identical results, so the choice is
// purely a throughput knob.
//
// All kernels assume the mini-batch graph has a *symmetric* edge set —
// samplers in this library always emit symmetrized subgraphs — which makes
// the GCN-normalized operator self-adjoint and lets mean aggregation use
// the same CSR for its transpose.
#pragma once

#include <vector>

#include "compute/backend.hpp"
#include "graph/csr_graph.hpp"
#include "kernels/spmm.hpp"
#include "tensor/tensor.hpp"

namespace gnav::nn {

/// Y[v] = mean over u in N(v) of X[u]; zero row when N(v) is empty.
tensor::Tensor aggregate_mean(const graph::CsrGraph& g,
                              const tensor::Tensor& x);

/// Transpose of aggregate_mean for backprop:
/// dX[u] = sum over v in N(u) of dY[v] / |N(v)|.
tensor::Tensor aggregate_mean_transpose(const graph::CsrGraph& g,
                                        const tensor::Tensor& dy);

/// GCN propagation with self-loops and symmetric normalization:
/// Y[v] = sum over u in N(v) ∪ {v} of X[u] / sqrt((d_v+1)(d_u+1)).
/// Self-adjoint on symmetric graphs, so it is its own transpose.
tensor::Tensor aggregate_gcn(const graph::CsrGraph& g,
                             const tensor::Tensor& x);

/// Y[v] = sum over u in N(v) of X[u] (plain sum aggregation).
tensor::Tensor aggregate_sum(const graph::CsrGraph& g,
                             const tensor::Tensor& x);

// Scale-vector builders and SpmmScales conventions live in the compute
// layer (one definition shared by the wrappers above and the layers);
// re-exported here because the nn layers cache them across
// forward/backward and historical call sites spell nn::.
using compute::gcn_norm_scales;
using compute::gcn_spmm_scales;
using compute::inverse_degree_scales;
using compute::mean_spmm_scales;
using compute::mean_transpose_spmm_scales;

/// FLOPs of one sparse aggregation pass over g with `cols` channels
/// (2 flops per edge per channel: multiply + accumulate).
double aggregation_flops(const graph::CsrGraph& g, std::size_t cols);

}  // namespace gnav::nn
