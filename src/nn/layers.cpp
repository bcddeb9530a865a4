#include "nn/layers.hpp"

#include <cmath>

#include "compute/backend.hpp"
#include "nn/aggregate.hpp"
#include "support/error.hpp"
#include "tensor/ops.hpp"

namespace gnav::nn {

using tensor::Tensor;

// ---------------------------------------------------------------- GcnConv

GcnConv::GcnConv(std::size_t in_dim, std::size_t out_dim, Rng& rng)
    : weight_("gcn.weight", Tensor::glorot(in_dim, out_dim, rng)),
      bias_("gcn.bias", Tensor::zeros(1, out_dim)) {}

Tensor GcnConv::forward(const graph::CsrGraph& g, const Tensor& x) {
  GNAV_CHECK(x.cols() == in_dim(), "GcnConv input dim mismatch");
  cached_norm_ = gcn_norm_scales(g);
  cached_graph_ = &g;
  cached_x_ = x;
  Tensor z = tensor::matmul(x, weight_.value);
  Tensor h = compute::current_backend().spmm(
      g, z, gcn_spmm_scales(cached_norm_.data()));
  tensor::add_row_bias_inplace(h, bias_.value);
  return h;
}

Tensor GcnConv::backward(const Tensor& grad_out, bool input_grad) {
  GNAV_CHECK(cached_graph_ != nullptr, "backward before forward");
  // H = P (X W) + b with P self-adjoint => dZ = P dH, reusing the cached
  // normalization vector from the forward pass.
  tensor::add_inplace(bias_.grad, tensor::column_sum(grad_out));
  Tensor dz = compute::current_backend().spmm(
      *cached_graph_, grad_out, gcn_spmm_scales(cached_norm_.data()));
  tensor::add_inplace(weight_.grad, tensor::matmul_at_b(cached_x_, dz));
  if (!input_grad) return {};
  return tensor::matmul_a_bt(dz, weight_.value);
}

std::vector<Parameter*> GcnConv::parameters() { return {&weight_, &bias_}; }

double GcnConv::forward_flops(std::int64_t n, std::int64_t m) const {
  const auto nd = static_cast<double>(n);
  const auto md = static_cast<double>(m);
  const auto in = static_cast<double>(in_dim());
  const auto out = static_cast<double>(out_dim());
  // dense transform + sparse propagate (+ self loops) + bias
  return 2.0 * nd * in * out + 2.0 * (md + nd) * out + nd * out;
}

// --------------------------------------------------------------- SageConv

SageConv::SageConv(std::size_t in_dim, std::size_t out_dim, Rng& rng)
    : w_self_("sage.w_self", Tensor::glorot(in_dim, out_dim, rng)),
      w_neigh_("sage.w_neigh", Tensor::glorot(in_dim, out_dim, rng)),
      bias_("sage.bias", Tensor::zeros(1, out_dim)) {}

Tensor SageConv::forward(const graph::CsrGraph& g, const Tensor& x) {
  GNAV_CHECK(x.cols() == in_dim(), "SageConv input dim mismatch");
  cached_inv_deg_ = inverse_degree_scales(g);
  cached_graph_ = &g;
  cached_x_ = x;
  cached_mean_ = compute::current_backend().spmm(
      g, x, mean_spmm_scales(cached_inv_deg_.data()));
  Tensor h = tensor::matmul(x, w_self_.value);
  tensor::add_inplace(h, tensor::matmul(cached_mean_, w_neigh_.value));
  tensor::add_row_bias_inplace(h, bias_.value);
  return h;
}

Tensor SageConv::backward(const Tensor& grad_out, bool input_grad) {
  GNAV_CHECK(cached_graph_ != nullptr, "backward before forward");
  tensor::add_inplace(bias_.grad, tensor::column_sum(grad_out));
  // Self path, then the neighbor path H_n = mean(X) W_n.
  tensor::add_inplace(w_self_.grad,
                      tensor::matmul_at_b(cached_x_, grad_out));
  tensor::add_inplace(w_neigh_.grad,
                      tensor::matmul_at_b(cached_mean_, grad_out));
  if (!input_grad) return {};
  Tensor dx = tensor::matmul_a_bt(grad_out, w_self_.value);
  Tensor dmean = tensor::matmul_a_bt(grad_out, w_neigh_.value);
  tensor::add_inplace(
      dx, compute::current_backend().spmm(
              *cached_graph_, dmean,
              mean_transpose_spmm_scales(cached_inv_deg_.data())));
  return dx;
}

std::vector<Parameter*> SageConv::parameters() {
  return {&w_self_, &w_neigh_, &bias_};
}

double SageConv::forward_flops(std::int64_t n, std::int64_t m) const {
  const auto nd = static_cast<double>(n);
  const auto md = static_cast<double>(m);
  const auto in = static_cast<double>(in_dim());
  const auto out = static_cast<double>(out_dim());
  // mean aggregation over inputs + two dense transforms + bias
  return 2.0 * md * in + 4.0 * nd * in * out + nd * out;
}

// ---------------------------------------------------------------- GatConv

GatConv::GatConv(std::size_t in_dim, std::size_t out_dim, Rng& rng,
                 float leaky_slope)
    : weight_("gat.weight", Tensor::glorot(in_dim, out_dim, rng)),
      attn_l_("gat.attn_l", Tensor::glorot(1, out_dim, rng)),
      attn_r_("gat.attn_r", Tensor::glorot(1, out_dim, rng)),
      bias_("gat.bias", Tensor::zeros(1, out_dim)),
      leaky_slope_(leaky_slope) {}

Tensor GatConv::forward(const graph::CsrGraph& g, const Tensor& x) {
  GNAV_CHECK(x.cols() == in_dim(), "GatConv input dim mismatch");
  cached_graph_ = &g;
  cached_x_ = x;
  cached_z_ = tensor::matmul(x, weight_.value);
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const std::size_t d = out_dim();

  // Per-node attention projections p_v = z_v . a_l, q_v = z_v . a_r.
  std::vector<float> p(n, 0.0f);
  std::vector<float> q(n, 0.0f);
  for (std::size_t v = 0; v < n; ++v) {
    const float* zv = cached_z_.row(v);
    float pv = 0.0f;
    float qv = 0.0f;
    for (std::size_t j = 0; j < d; ++j) {
      pv += zv[j] * attn_l_.value.at(0, j);
      qv += zv[j] * attn_r_.value.at(0, j);
    }
    p[v] = pv;
    q[v] = qv;
  }

  // Slot layout: for each v, its |N(v)| neighbor slots then one self slot.
  slot_offset_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    slot_offset_[v + 1] =
        slot_offset_[v] +
        static_cast<std::size_t>(
            g.degree(static_cast<graph::NodeId>(v))) + 1;
  }
  cached_scores_.assign(slot_offset_[n], 0.0f);
  cached_alpha_.assign(slot_offset_[n], 0.0f);

  Tensor h(n, d);
  for (std::size_t v = 0; v < n; ++v) {
    const auto nb = g.neighbors(static_cast<graph::NodeId>(v));
    const std::size_t base = slot_offset_[v];
    const std::size_t cnt = nb.size() + 1;
    // scores (pre-activation cached for LeakyReLU backward)
    float mx = -1e30f;
    for (std::size_t s = 0; s < cnt; ++s) {
      const std::size_t u =
          (s < nb.size()) ? static_cast<std::size_t>(nb[s]) : v;
      const float raw = p[v] + q[u];
      cached_scores_[base + s] = raw;
      const float e = raw >= 0.0f ? raw : leaky_slope_ * raw;
      mx = std::max(mx, e);
      cached_alpha_[base + s] = e;  // temporarily hold activated score
    }
    float total = 0.0f;
    for (std::size_t s = 0; s < cnt; ++s) {
      cached_alpha_[base + s] = std::exp(cached_alpha_[base + s] - mx);
      total += cached_alpha_[base + s];
    }
    const float inv = 1.0f / std::max(total, 1e-20f);
    float* hv = h.row(v);
    for (std::size_t s = 0; s < cnt; ++s) {
      cached_alpha_[base + s] *= inv;
      const std::size_t u =
          (s < nb.size()) ? static_cast<std::size_t>(nb[s]) : v;
      const float a = cached_alpha_[base + s];
      const float* zu = cached_z_.row(u);
      for (std::size_t j = 0; j < d; ++j) hv[j] += a * zu[j];
    }
  }
  tensor::add_row_bias_inplace(h, bias_.value);
  return h;
}

Tensor GatConv::backward(const Tensor& grad_out, bool input_grad) {
  GNAV_CHECK(cached_graph_ != nullptr, "backward before forward");
  const graph::CsrGraph& g = *cached_graph_;
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const std::size_t d = out_dim();
  tensor::add_inplace(bias_.grad, tensor::column_sum(grad_out));

  Tensor dz(n, d);
  std::vector<float> dp(n, 0.0f);
  std::vector<float> dq(n, 0.0f);

  for (std::size_t v = 0; v < n; ++v) {
    const auto nb = g.neighbors(static_cast<graph::NodeId>(v));
    const std::size_t base = slot_offset_[v];
    const std::size_t cnt = nb.size() + 1;
    const float* dhv = grad_out.row(v);

    // dalpha_s = dh_v . z_u ; softmax backward needs the alpha-weighted sum.
    float weighted = 0.0f;
    std::vector<float> dalpha(cnt);
    for (std::size_t s = 0; s < cnt; ++s) {
      const std::size_t u =
          (s < nb.size()) ? static_cast<std::size_t>(nb[s]) : v;
      const float* zu = cached_z_.row(u);
      float da = 0.0f;
      for (std::size_t j = 0; j < d; ++j) da += dhv[j] * zu[j];
      dalpha[s] = da;
      weighted += cached_alpha_[base + s] * da;
    }
    for (std::size_t s = 0; s < cnt; ++s) {
      const std::size_t u =
          (s < nb.size()) ? static_cast<std::size_t>(nb[s]) : v;
      const float alpha = cached_alpha_[base + s];
      // combination-path gradient: dz_u += alpha * dh_v
      float* dzu = dz.row(u);
      for (std::size_t j = 0; j < d; ++j) dzu[j] += alpha * dhv[j];
      // attention-path gradient through softmax + LeakyReLU
      const float ds = alpha * (dalpha[s] - weighted);
      const float raw = cached_scores_[base + s];
      const float g_slope = raw >= 0.0f ? 1.0f : leaky_slope_;
      const float de = ds * g_slope;
      dp[v] += de;
      dq[u] += de;
    }
  }

  // dz += dp_v * a_l + dq_v * a_r ; da_l += sum_v dp_v z_v (same for a_r).
  for (std::size_t v = 0; v < n; ++v) {
    float* dzv = dz.row(v);
    const float* zv = cached_z_.row(v);
    for (std::size_t j = 0; j < d; ++j) {
      dzv[j] += dp[v] * attn_l_.value.at(0, j) +
                dq[v] * attn_r_.value.at(0, j);
      attn_l_.grad.at(0, j) += dp[v] * zv[j];
      attn_r_.grad.at(0, j) += dq[v] * zv[j];
    }
  }

  tensor::add_inplace(weight_.grad, tensor::matmul_at_b(cached_x_, dz));
  if (!input_grad) return {};
  return tensor::matmul_a_bt(dz, weight_.value);
}

std::vector<Parameter*> GatConv::parameters() {
  return {&weight_, &attn_l_, &attn_r_, &bias_};
}

double GatConv::forward_flops(std::int64_t n, std::int64_t m) const {
  const auto nd = static_cast<double>(n);
  const auto md = static_cast<double>(m);
  const auto in = static_cast<double>(in_dim());
  const auto out = static_cast<double>(out_dim());
  // dense transform + projections + per-edge score/softmax/combine.
  // Production GAT deployments (and the paper's) run 8 attention heads;
  // this reproduction executes one head and cost-models all 8.
  constexpr double kCostHeads = 8.0;
  return kCostHeads *
         (2.0 * nd * in * out + 4.0 * nd * out + 8.0 * (md + nd) * out);
}

}  // namespace gnav::nn
