// Extending the backend — the paper stresses that "the runtime backend
// can even incrementally support future optimizations only if they submit
// to our abstraction". This example does it twice, at both extension
// seams:
//
//  1. a brand-new sampling strategy (a degree-capped "frontier firehose"
//     sampler that takes ALL neighbors of low-degree vertices and a
//     fixed fanout of hubs) against the Sampler interface, and
//  2. an out-of-tree ComputeBackend ("example-counting": delegates SpMM
//     to the built-in blocked kernel while counting dispatches)
//     registered in the BackendFactory with its id and creator, and
//     selected for the training loop with a lexical BackendScope (a
//     RuntimeBackend run would name it in RunOptions::backend_id
//     instead),
//
// then trains with both on the same dataset/model stack with zero
// changes to the library.
#include <atomic>
#include <cstdio>
#include <unordered_set>

#include "compute/backend.hpp"
#include "graph/dataset.hpp"
#include "hw/platform.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optim.hpp"
#include "sampling/batcher.hpp"
#include "sampling/build.hpp"
#include "sampling/sampler.hpp"
#include "tensor/ops.hpp"

using namespace gnav;

namespace {

/// Custom strategy: vertices with degree <= `cap` contribute their whole
/// neighborhood; hubs are subsampled to `hub_fanout`. One hop.
class DegreeCappedSampler final : public sampling::Sampler {
 public:
  DegreeCappedSampler(int cap, int hub_fanout)
      : cap_(cap), hub_fanout_(hub_fanout) {}

  sampling::MiniBatch sample(const graph::CsrGraph& g,
                             std::span<const graph::NodeId> seeds,
                             Rng& rng) const override {
    std::vector<graph::NodeId> collected;
    std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
    double work = 0.0;
    for (graph::NodeId v : seeds) {
      const auto nb = g.neighbors(v);
      work += static_cast<double>(nb.size());
      if (static_cast<int>(nb.size()) <= cap_) {
        for (graph::NodeId u : nb) {
          collected.push_back(u);
          edges.emplace_back(v, u);
        }
      } else {
        for (auto idx : rng.sample_without_replacement(
                 static_cast<std::int64_t>(nb.size()), hub_fanout_)) {
          const graph::NodeId u = nb[static_cast<std::size_t>(idx)];
          collected.push_back(u);
          edges.emplace_back(v, u);
        }
      }
    }
    sampling::SampleScratch& sc = sampling::SampleScratch::local();
    const auto& ordered = sampling::detail::order_nodes(g, seeds, collected, sc);
    return sampling::detail::build_from_edges(g, seeds, ordered, edges, work,
                                              sc);
  }

  sampling::SamplerKind kind() const override {
    return sampling::SamplerKind::kNodeWise;  // closest category
  }
  std::vector<int> hop_list() const override { return {cap_}; }

 private:
  int cap_;
  int hub_fanout_;
};

/// Custom compute backend: delegates the actual math to the built-in
/// blocked backend (keeping the bit-identity contract for free) while
/// counting SpMM dispatches — the minimal shape of a real out-of-tree
/// backend, which would swap the delegation for its own kernels.
class CountingBackend final : public compute::ComputeBackend {
 public:
  const std::string& id() const override {
    static const std::string kId = "example-counting";
    return kId;
  }
  compute::BackendCapabilities capabilities() const override {
    return delegate().capabilities();
  }
  compute::DeviceAllocator& allocator() const override {
    return delegate().allocator();
  }
  void spmm(const graph::CsrGraph& g, const tensor::Tensor& x,
            tensor::Tensor& y, const kernels::SpmmScales& scales,
            support::ThreadPool* pool) const override {
    dispatches.fetch_add(1, std::memory_order_relaxed);
    delegate().spmm(g, x, y, scales, pool);
  }
  using ComputeBackend::spmm;

  static std::atomic<std::uint64_t> dispatches;

 private:
  static const compute::ComputeBackend& delegate() {
    static const auto blocked =
        compute::BackendFactory::create(compute::kBlockedBackendId);
    return *blocked;
  }
};

std::atomic<std::uint64_t> CountingBackend::dispatches{0};

std::shared_ptr<compute::ComputeBackend> make_counting_backend() {
  return std::make_shared<CountingBackend>();
}

}  // namespace

int main() {
  // Register the custom backend: an id and a creator are all it takes.
  compute::BackendFactory::register_backend("example-counting",
                                            &make_counting_backend);
  // Route every aggregation in this scope (model forward/backward
  // included) through it.
  const compute::BackendScope backend_scope("example-counting");

  const graph::Dataset ds = graph::load_dataset("ogbn-arxiv");
  Rng rng(123);

  nn::ModelConfig mc;
  mc.kind = nn::ModelKind::kSage;
  mc.in_dim = static_cast<std::size_t>(ds.feature_dim);
  mc.hidden_dim = 64;
  mc.out_dim = static_cast<std::size_t>(ds.num_classes);
  mc.num_layers = 2;
  nn::GnnModel model(mc, rng);
  nn::Adam opt(model.parameters(), 0.01f);

  DegreeCappedSampler sampler(/*cap=*/12, /*hub_fanout=*/6);
  sampling::SeedBatcher batcher(ds.train_nodes, 512);

  tensor::Tensor x_full(static_cast<std::size_t>(ds.num_nodes()),
                        static_cast<std::size_t>(ds.feature_dim));
  std::copy(ds.features.begin(), ds.features.end(), x_full.data());

  std::printf("training ogbn-arxiv with a custom sampler plugged into the "
              "unified abstraction:\n");
  for (int epoch = 0; epoch < 4; ++epoch) {
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (const auto& seeds : batcher.epoch_batches(rng)) {
      const auto mb = sampler.sample(ds.graph, seeds, rng);
      tensor::Tensor x = tensor::gather_rows(x_full, mb.nodes);
      tensor::Tensor logits = model.forward(mb.subgraph, x, true, rng);
      std::vector<int> labels(mb.seed_local.size());
      for (std::size_t i = 0; i < labels.size(); ++i) {
        labels[i] = ds.labels[static_cast<std::size_t>(
            mb.nodes[static_cast<std::size_t>(mb.seed_local[i])])];
      }
      const auto loss = nn::softmax_cross_entropy(logits, mb.seed_local,
                                                  labels);
      opt.zero_grad();
      model.backward(loss.grad_logits);
      opt.step();
      loss_sum += loss.loss;
      ++batches;
    }
    // full-graph evaluation
    tensor::Tensor logits = model.forward(ds.graph, x_full, false, rng);
    std::vector<int> test_labels(ds.test_nodes.size());
    for (std::size_t i = 0; i < test_labels.size(); ++i) {
      test_labels[i] = ds.labels[static_cast<std::size_t>(ds.test_nodes[i])];
    }
    std::printf("  epoch %d: loss=%.4f  test-acc=%.2f%%\n", epoch + 1,
                loss_sum / static_cast<double>(batches),
                100.0 * nn::accuracy(logits, ds.test_nodes, test_labels));
  }
  std::printf("custom '%s' backend handled %llu SpMM dispatches "
              "(simd tier: %s)\n",
              compute::current_backend().id().c_str(),
              static_cast<unsigned long long>(
                  CountingBackend::dispatches.load()),
              compute::current_backend().capabilities().simd_tier.c_str());
  return 0;
}
