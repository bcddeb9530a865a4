// GNN convolution layers with manual forward/backward (no autograd tape —
// each layer caches exactly the activations its backward pass needs).
//
// Supported convs mirror the paper's evaluated models: GCNConv (Kipf &
// Welling), SAGEConv with mean aggregation (GraphSAGE), and GATConv
// (single attention head per instance; multi-head models stack instances
// and concatenate — see GnnModel).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "nn/parameter.hpp"
#include "tensor/tensor.hpp"

namespace gnav::nn {

/// Interface for one graph convolution. Call forward() before backward();
/// backward() consumes the cached activations of the *latest* forward.
class GraphConv {
 public:
  virtual ~GraphConv() = default;

  /// H = conv(G, X). X: [num_nodes x in_dim] -> [num_nodes x out_dim].
  virtual tensor::Tensor forward(const graph::CsrGraph& g,
                                 const tensor::Tensor& x) = 0;

  /// Given dL/dH, accumulates parameter grads and returns dL/dX. With
  /// `input_grad` false it returns an empty tensor instead and skips the
  /// products only dL/dX needs (a model's first layer: nothing reads the
  /// gradient of the input features). Parameter grads are bit-identical
  /// either way. No default: a default argument on a virtual binds by the
  /// static type of the call.
  virtual tensor::Tensor backward(const tensor::Tensor& grad_out,
                                  bool input_grad) = 0;

  virtual std::vector<Parameter*> parameters() = 0;

  virtual std::size_t in_dim() const = 0;
  virtual std::size_t out_dim() const = 0;

  /// FLOPs of one forward pass for a batch with n nodes and m edges
  /// (used by the white-box part of the performance estimator).
  virtual double forward_flops(std::int64_t n, std::int64_t m) const = 0;
};

/// H = P_gcn (X W) + b, P_gcn the symmetric-normalized adjacency with
/// self-loops.
class GcnConv final : public GraphConv {
 public:
  GcnConv(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  tensor::Tensor forward(const graph::CsrGraph& g,
                         const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out,
                          bool input_grad) override;
  std::vector<Parameter*> parameters() override;
  std::size_t in_dim() const override { return weight_.value.rows(); }
  std::size_t out_dim() const override { return weight_.value.cols(); }
  double forward_flops(std::int64_t n, std::int64_t m) const override;

 private:
  Parameter weight_;
  Parameter bias_;
  const graph::CsrGraph* cached_graph_ = nullptr;
  tensor::Tensor cached_x_;
  // 1/sqrt(d+1) per vertex, computed in forward and reused by the
  // self-adjoint backward SpMM (kernels/spmm.hpp).
  std::vector<float> cached_norm_;
};

/// H = X W_self + mean_{u in N(v)} X_u W_neigh + b (GraphSAGE-mean).
class SageConv final : public GraphConv {
 public:
  SageConv(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  tensor::Tensor forward(const graph::CsrGraph& g,
                         const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out,
                          bool input_grad) override;
  std::vector<Parameter*> parameters() override;
  std::size_t in_dim() const override { return w_self_.value.rows(); }
  std::size_t out_dim() const override { return w_self_.value.cols(); }
  double forward_flops(std::int64_t n, std::int64_t m) const override;

 private:
  Parameter w_self_;
  Parameter w_neigh_;
  Parameter bias_;
  const graph::CsrGraph* cached_graph_ = nullptr;
  tensor::Tensor cached_x_;
  tensor::Tensor cached_mean_;  // mean-aggregated features
  // 1/deg per vertex: dst scale of the forward mean, src scale of the
  // backward transpose-mean scatter (same CSR — symmetric edge sets).
  std::vector<float> cached_inv_deg_;
};

/// Single-head graph attention (Velickovic et al.):
/// e_vu = LeakyReLU(a_l . z_v + a_r . z_u), z = X W,
/// alpha_v. = softmax_u(e_vu) over u in N(v) ∪ {v},
/// h_v = sum_u alpha_vu z_u + b.
class GatConv final : public GraphConv {
 public:
  GatConv(std::size_t in_dim, std::size_t out_dim, Rng& rng,
          float leaky_slope = 0.2f);

  tensor::Tensor forward(const graph::CsrGraph& g,
                         const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out,
                          bool input_grad) override;
  std::vector<Parameter*> parameters() override;
  std::size_t in_dim() const override { return weight_.value.rows(); }
  std::size_t out_dim() const override { return weight_.value.cols(); }
  double forward_flops(std::int64_t n, std::int64_t m) const override;

 private:
  Parameter weight_;
  Parameter attn_l_;  // [1 x out]
  Parameter attn_r_;  // [1 x out]
  Parameter bias_;
  float leaky_slope_;
  // forward caches
  const graph::CsrGraph* cached_graph_ = nullptr;
  tensor::Tensor cached_x_;
  tensor::Tensor cached_z_;
  std::vector<float> cached_scores_;  // pre-activation e per (v, slot)
  std::vector<float> cached_alpha_;   // post-softmax alpha per (v, slot)
  // slot layout per v: [neighbors..., self]; offsets into the two arrays
  std::vector<std::size_t> slot_offset_;
};

}  // namespace gnav::nn
