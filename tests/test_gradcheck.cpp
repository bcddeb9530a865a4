// Finite-difference gradient checks for every convolution layer and the
// softmax cross-entropy loss — the strongest correctness evidence the
// manual-backward training stack has — plus the contract of a skipped
// input gradient. Parameterized over layer kinds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "graph/graph_builder.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "support/rng.hpp"
#include "tensor/ops.hpp"

namespace gnav::nn {
namespace {

graph::CsrGraph test_graph() {
  // Small irregular graph: a triangle, a pendant, and an isolated vertex.
  return graph::build_undirected(6, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}});
}

/// Scalar objective: L = sum_ij C_ij * H_ij for a fixed random C, so
/// dL/dH = C exactly and all curvature comes from the layer itself.
double objective(GraphConv& conv, const graph::CsrGraph& g,
                 const tensor::Tensor& x, const tensor::Tensor& c) {
  const tensor::Tensor h = conv.forward(g, x);
  double total = 0.0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    total += static_cast<double>(h.data()[i]) * c.data()[i];
  }
  return total;
}

struct LayerFactory {
  const char* name;
  std::function<std::unique_ptr<GraphConv>(std::size_t, std::size_t, Rng&)>
      make;
};

class GradCheck : public ::testing::TestWithParam<LayerFactory> {};

TEST_P(GradCheck, ParameterAndInputGradientsMatchFiniteDifferences) {
  Rng rng(1234);
  const auto g = test_graph();
  const std::size_t in = 5;
  const std::size_t out = 4;
  auto conv = GetParam().make(in, out, rng);
  tensor::Tensor x = tensor::Tensor::uniform(6, in, -1.0f, 1.0f, rng);
  const tensor::Tensor c = tensor::Tensor::uniform(6, out, -1.0f, 1.0f, rng);

  // Analytic gradients.
  for (Parameter* p : conv->parameters()) p->zero_grad();
  objective(*conv, g, x, c);
  const tensor::Tensor dx = conv->backward(c, true);

  const float eps = 2e-3f;
  auto check = [&](float* slot, double analytic, const std::string& what) {
    const float saved = *slot;
    *slot = saved + eps;
    const double plus = objective(*conv, g, x, c);
    *slot = saved - eps;
    const double minus = objective(*conv, g, x, c);
    *slot = saved;
    const double numeric = (plus - minus) / (2.0 * eps);
    const double scale = std::max({1.0, std::abs(numeric), std::abs(analytic)});
    EXPECT_NEAR(analytic / scale, numeric / scale, 2e-2)
        << what << " (analytic=" << analytic << ", numeric=" << numeric
        << ")";
  };

  // Probe a spread of parameter entries in every parameter tensor.
  for (Parameter* p : conv->parameters()) {
    const std::size_t stride = std::max<std::size_t>(1, p->value.size() / 5);
    for (std::size_t i = 0; i < p->value.size(); i += stride) {
      check(&p->value.data()[i], p->grad.data()[i],
            p->name + "[" + std::to_string(i) + "]");
    }
  }
  // Probe input gradient entries.
  for (std::size_t i = 0; i < x.size(); i += 7) {
    check(&x.data()[i], dx.data()[i], "x[" + std::to_string(i) + "]");
  }
}

TEST_P(GradCheck, SkippedInputGradientLeavesParameterGradientsBitIdentical) {
  // A model's first layer passes input_grad = false: the layer must return
  // nothing and skip only the dL/dX products, never a parameter gradient.
  Rng rng(4321);
  const auto g = test_graph();
  auto conv = GetParam().make(5, 4, rng);
  const tensor::Tensor x = tensor::Tensor::uniform(6, 5, -1.0f, 1.0f, rng);
  const tensor::Tensor c = tensor::Tensor::uniform(6, 4, -1.0f, 1.0f, rng);
  const auto backward = [&](bool input_grad, tensor::Tensor* dx) {
    for (Parameter* p : conv->parameters()) p->zero_grad();
    objective(*conv, g, x, c);
    *dx = conv->backward(c, input_grad);
    std::vector<tensor::Tensor> grads;
    for (Parameter* p : conv->parameters()) grads.push_back(p->grad);
    return grads;
  };
  tensor::Tensor dx_full;
  tensor::Tensor dx_skipped;
  const auto full = backward(true, &dx_full);
  const auto skipped = backward(false, &dx_skipped);
  EXPECT_TRUE(dx_full.same_shape(x));
  EXPECT_TRUE(dx_skipped.empty());
  const auto params = conv->parameters();
  ASSERT_EQ(full.size(), skipped.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    ASSERT_TRUE(full[i].same_shape(skipped[i]));
    EXPECT_EQ(std::memcmp(full[i].data(), skipped[i].data(),
                          full[i].size() * sizeof(float)),
              0)
        << params[i]->name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLayers, GradCheck,
    ::testing::Values(
        LayerFactory{"gcn",
                     [](std::size_t in, std::size_t out, Rng& rng) {
                       return std::unique_ptr<GraphConv>(
                           new GcnConv(in, out, rng));
                     }},
        LayerFactory{"sage",
                     [](std::size_t in, std::size_t out, Rng& rng) {
                       return std::unique_ptr<GraphConv>(
                           new SageConv(in, out, rng));
                     }},
        LayerFactory{"gat",
                     [](std::size_t in, std::size_t out, Rng& rng) {
                       return std::unique_ptr<GraphConv>(
                           new GatConv(in, out, rng));
                     }}),
    [](const ::testing::TestParamInfo<LayerFactory>& info) {
      return std::string(info.param.name);
    });

TEST(LossGradCheck, CrossEntropyGradientMatchesFiniteDifferences) {
  Rng rng(77);
  tensor::Tensor logits = tensor::Tensor::uniform(4, 3, -2.0f, 2.0f, rng);
  const std::vector<std::int64_t> rows = {0, 2, 3};
  const std::vector<int> labels = {1, 0, 2};
  const LossResult res = softmax_cross_entropy(logits, rows, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float saved = logits.data()[i];
    logits.data()[i] = saved + eps;
    const double plus = softmax_cross_entropy(logits, rows, labels).loss;
    logits.data()[i] = saved - eps;
    const double minus = softmax_cross_entropy(logits, rows, labels).loss;
    logits.data()[i] = saved;
    const double numeric = (plus - minus) / (2.0 * eps);
    EXPECT_NEAR(res.grad_logits.data()[i], numeric, 2e-3);
  }
}

}  // namespace
}  // namespace gnav::nn
