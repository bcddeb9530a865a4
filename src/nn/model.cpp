#include "nn/model.hpp"

#include "support/error.hpp"
#include "tensor/ops.hpp"

namespace gnav::nn {

std::string to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kGcn:
      return "gcn";
    case ModelKind::kSage:
      return "sage";
    case ModelKind::kGat:
      return "gat";
  }
  return "?";
}

ModelKind model_kind_from_string(const std::string& s) {
  if (s == "gcn") return ModelKind::kGcn;
  if (s == "sage") return ModelKind::kSage;
  if (s == "gat") return ModelKind::kGat;
  throw Error("unknown model kind '" + s + "'");
}

namespace {
std::unique_ptr<GraphConv> make_conv(ModelKind kind, std::size_t in,
                                     std::size_t out, Rng& rng) {
  switch (kind) {
    case ModelKind::kGcn:
      return std::make_unique<GcnConv>(in, out, rng);
    case ModelKind::kSage:
      return std::make_unique<SageConv>(in, out, rng);
    case ModelKind::kGat:
      return std::make_unique<GatConv>(in, out, rng);
  }
  throw Error("unreachable model kind");
}
}  // namespace

GnnModel::GnnModel(const ModelConfig& config, Rng& rng) : config_(config) {
  GNAV_CHECK(config.num_layers >= 1, "model needs at least one layer");
  GNAV_CHECK(config.dropout >= 0.0f && config.dropout < 1.0f,
             "dropout must be in [0,1)");
  for (std::size_t l = 0; l < config.num_layers; ++l) {
    const std::size_t in = (l == 0) ? config.in_dim : config.hidden_dim;
    const std::size_t out =
        (l + 1 == config.num_layers) ? config.out_dim : config.hidden_dim;
    convs_.push_back(make_conv(config.kind, in, out, rng));
  }
}

tensor::Tensor GnnModel::forward(const graph::CsrGraph& g,
                                 const tensor::Tensor& x, bool training,
                                 Rng& rng) {
  pre_activations_.clear();
  dropout_masks_.clear();
  last_training_ = training;
  tensor::Tensor h = x;
  for (std::size_t l = 0; l < convs_.size(); ++l) {
    h = convs_[l]->forward(g, h);
    if (l + 1 < convs_.size()) {
      pre_activations_.push_back(h);
      h = (config_.kind == ModelKind::kGat)
              ? tensor::elu(h)
              : tensor::relu(h);
      if (training && config_.dropout > 0.0f) {
        tensor::Tensor mask;
        h = tensor::dropout(h, config_.dropout, rng, &mask);
        dropout_masks_.push_back(std::move(mask));
      } else {
        dropout_masks_.emplace_back();
      }
    }
  }
  return h;
}

void GnnModel::backward(const tensor::Tensor& grad_logits) {
  tensor::Tensor g = grad_logits;
  for (std::size_t l = convs_.size(); l-- > 0;) {
    // Nothing reads the input features' gradient: layer 0 skips it.
    g = convs_[l]->backward(g, l > 0);
    if (l > 0) {
      const tensor::Tensor& mask = dropout_masks_[l - 1];
      if (last_training_ && !mask.empty()) {
        g = tensor::dropout_backward(g, mask);
      }
      const tensor::Tensor& z = pre_activations_[l - 1];
      g = (config_.kind == ModelKind::kGat)
              ? tensor::elu_backward(g, z)
              : tensor::relu_backward(g, z);
    }
  }
}

std::vector<Parameter*> GnnModel::parameters() {
  std::vector<Parameter*> out;
  for (auto& conv : convs_) {
    for (Parameter* p : conv->parameters()) out.push_back(p);
  }
  return out;
}

std::size_t GnnModel::parameter_count() const {
  std::size_t total = 0;
  for (const auto& conv : convs_) {
    for (Parameter* p :
         const_cast<GraphConv&>(*conv).parameters()) {
      total += p->count();
    }
  }
  return total;
}

double GnnModel::forward_flops(std::int64_t n, std::int64_t m) const {
  double total = 0.0;
  for (const auto& conv : convs_) total += conv->forward_flops(n, m);
  return total;
}

double GnnModel::activation_floats(std::int64_t n) const {
  // Input row + each layer's output row + mirrored gradients (factor 2).
  double per_node = static_cast<double>(config_.in_dim);
  for (const auto& conv : convs_) {
    per_node += static_cast<double>(conv->out_dim());
  }
  return 2.0 * per_node * static_cast<double>(n);
}

double GnnModel::activation_edge_floats(std::int64_t m) const {
  if (config_.kind != ModelKind::kGat) return 0.0;
  // Cached raw scores + alphas (+ their gradients) per edge slot per layer
  // per cost-modeled attention head.
  return 8.0 * 4.0 * static_cast<double>(m) *
         static_cast<double>(convs_.size());
}

}  // namespace gnav::nn
