#include "nn/aggregate.hpp"

#include <string>

#include "compute/backend.hpp"
#include "support/error.hpp"

namespace gnav::nn {

using tensor::Tensor;

namespace {

/// One aggregation pass through the calling thread's backend.
Tensor aggregate(const graph::CsrGraph& g, const Tensor& x,
                 const kernels::SpmmScales& scales) {
  GNAV_CHECK(x.rows() == static_cast<std::size_t>(g.num_nodes()),
             "aggregate: feature rows (" + std::to_string(x.rows()) +
                 ") != num_nodes (" + std::to_string(g.num_nodes()) + ")");
  return compute::current_backend().spmm(g, x, scales);
}

}  // namespace

Tensor aggregate_mean(const graph::CsrGraph& g, const Tensor& x) {
  const auto inv = inverse_degree_scales(g);
  return aggregate(g, x, mean_spmm_scales(inv.data()));
}

Tensor aggregate_mean_transpose(const graph::CsrGraph& g, const Tensor& dy) {
  // On a symmetric edge set the scatter dX[u] += dY[v]/deg(v) over edges
  // (v,u) is exactly the pull dX[u] = sum_{v in N(u)} dY[v]/deg(v).
  const auto inv = inverse_degree_scales(g);
  return aggregate(g, dy, mean_transpose_spmm_scales(inv.data()));
}

Tensor aggregate_gcn(const graph::CsrGraph& g, const Tensor& x) {
  const auto norm = gcn_norm_scales(g);
  return aggregate(g, x, gcn_spmm_scales(norm.data()));
}

Tensor aggregate_sum(const graph::CsrGraph& g, const Tensor& x) {
  return aggregate(g, x, kernels::SpmmScales{});
}

double aggregation_flops(const graph::CsrGraph& g, std::size_t cols) {
  return 2.0 * static_cast<double>(g.num_edges()) *
         static_cast<double>(cols);
}

}  // namespace gnav::nn
