// Micro-benchmarks (google-benchmark) for the hot kernels under the
// runtime backend: neighbor sampling, sparse aggregation, dense matmul,
// dropout, the ReLU gradient, cache lookups, full train steps, and the
// DSE's boosted-ensemble predictions and Pareto front. These are
// CPU-substrate numbers, not paper figures — they document where
// simulator time goes.
#include <benchmark/benchmark.h>

#include <cmath>

#include "cache/device_cache.hpp"
#include "dse/pareto.hpp"
#include "graph/dataset.hpp"
#include "graph/generators.hpp"
#include "kernels/spmm.hpp"
#include "ml/gradient_boosting.hpp"
#include "nn/aggregate.hpp"
#include "nn/model.hpp"
#include "sampling/sampler_factory.hpp"
#include "tensor/ops.hpp"

using namespace gnav;

namespace {

const graph::CsrGraph& bench_graph() {
  static const graph::CsrGraph g = [] {
    Rng rng(1);
    return graph::power_law_configuration(20000, 2.2, 4, 500, rng);
  }();
  return g;
}

// --- Scalar-vs-blocked SpMM A/B across graph families ------------------
//
// Family 0: erdos_renyi (uniform degrees), 1: barabasi_albert (power-law
// tail), 2: rmat (heaviest skew — the headline workload). The graphs are
// sized so the feature matrix at the default dim (64) exceeds L2, which
// is the regime the blocked kernel's feature-dim tiling targets.

const graph::CsrGraph& family_graph(int family) {
  static const graph::CsrGraph er = [] {
    Rng rng(41);
    return graph::erdos_renyi(30000, 16.0 / 30000.0, rng);
  }();
  static const graph::CsrGraph ba = [] {
    Rng rng(42);
    return graph::barabasi_albert(30000, 8, rng);
  }();
  static const graph::CsrGraph rm = [] {
    Rng rng(43);
    return graph::rmat(15, 16.0, 0.57, 0.19, 0.19, rng);
  }();
  switch (family) {
    case 0:
      return er;
    case 1:
      return ba;
    default:
      return rm;
  }
}

/// args: family (0=er, 1=ba, 2=rmat), impl (0=scalar, 1=blocked),
/// feature dim. Sum aggregation — the variant every model's hot path
/// reduces to; scales only add per-row multiplies.
void BM_SpmmSum(benchmark::State& state) {
  const auto& g = family_graph(static_cast<int>(state.range(0)));
  const auto impl = state.range(1) == 0 ? kernels::SpmmImpl::kScalar
                                        : kernels::SpmmImpl::kBlocked;
  const auto dim = static_cast<std::size_t>(state.range(2));
  Rng rng(44);
  const auto x = tensor::Tensor::uniform(
      static_cast<std::size_t>(g.num_nodes()), dim, -1, 1, rng);
  tensor::Tensor y(x.rows(), x.cols());
  for (auto _ : state) {
    kernels::spmm(g, x, y, kernels::SpmmScales{}, impl);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  state.counters["gflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          nn::aggregation_flops(g, dim) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpmmSum)
    ->ArgNames({"family", "impl", "dim"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}, {32, 64, 128}})
    ->Unit(benchmark::kMillisecond);

void BM_NodeWiseSampling(benchmark::State& state) {
  const auto& g = bench_graph();
  Rng rng(2);
  sampling::SamplerSettings settings;
  settings.hop_list = {static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(0))};
  const auto sampler = sampling::make_sampler(settings, nullptr);
  std::vector<graph::NodeId> seeds;
  for (auto v : rng.sample_without_replacement(g.num_nodes(), 512)) {
    seeds.push_back(v);
  }
  for (auto _ : state) {
    auto mb = sampler->sample(g, seeds, rng);
    benchmark::DoNotOptimize(mb.nodes.data());
    state.counters["batch_nodes"] =
        static_cast<double>(mb.num_nodes());
  }
}
BENCHMARK(BM_NodeWiseSampling)->Arg(5)->Arg(10)->Arg(25);

void BM_SaintWalkSampling(benchmark::State& state) {
  const auto& g = bench_graph();
  Rng rng(3);
  sampling::SamplerSettings settings;
  settings.kind = sampling::SamplerKind::kSaintWalk;
  settings.hop_list = std::vector<int>(4, 1);
  const auto sampler = sampling::make_sampler(settings, nullptr);
  std::vector<graph::NodeId> seeds;
  for (auto v : rng.sample_without_replacement(g.num_nodes(), 512)) {
    seeds.push_back(v);
  }
  for (auto _ : state) {
    auto mb = sampler->sample(g, seeds, rng);
    benchmark::DoNotOptimize(mb.nodes.data());
  }
}
BENCHMARK(BM_SaintWalkSampling);

void BM_AggregateMean(benchmark::State& state) {
  const auto& g = bench_graph();
  Rng rng(4);
  const auto x = tensor::Tensor::uniform(
      static_cast<std::size_t>(g.num_nodes()),
      static_cast<std::size_t>(state.range(0)), -1, 1, rng);
  for (auto _ : state) {
    auto y = nn::aggregate_mean(g, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_AggregateMean)->Arg(32)->Arg(128);

void BM_AggregateGcn(benchmark::State& state) {
  const auto& g = bench_graph();
  Rng rng(5);
  const auto x = tensor::Tensor::uniform(
      static_cast<std::size_t>(g.num_nodes()), 64, -1, 1, rng);
  for (auto _ : state) {
    auto y = nn::aggregate_gcn(g, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_AggregateGcn);

/// args: variant (0 = matmul, 1 = matmul_at_b, 2 = matmul_a_bt) and layer
/// (0 = 32 -> 64, 1 = 64 -> 12) at a train-products-async batch of 7301
/// rows: the forward product, the weight gradient and the input gradient
/// one layer makes. The 64-wide input of layer 1 is a ReLU + dropout
/// activation, about 60% exact zeros.
void BM_Matmul(benchmark::State& state) {
  constexpr std::size_t kRows = 7301;
  const int variant = static_cast<int>(state.range(0));
  const bool hidden = state.range(1) == 1;
  const std::size_t in = hidden ? 64 : 32;
  const std::size_t out = hidden ? 12 : 64;
  Rng rng(6);
  auto x = tensor::Tensor::uniform(kRows, in, -1, 1, rng);
  if (hidden) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (rng.uniform() < 0.6) x.data()[i] = 0.0f;
    }
  }
  const auto w = tensor::Tensor::uniform(in, out, -1, 1, rng);
  const auto grad = tensor::Tensor::uniform(kRows, out, -1, 1, rng);
  for (auto _ : state) {
    const tensor::Tensor c = variant == 0   ? tensor::matmul(x, w)
                             : variant == 1 ? tensor::matmul_at_b(x, grad)
                                            : tensor::matmul_a_bt(grad, w);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRows * in *
                                                                 out * 2));
}
BENCHMARK(BM_Matmul)
    ->ArgNames({"variant", "layer"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// The elementwise benchmarks below run on the 7301 x 64 hidden
/// activation of a train-products-async batch, under the current tier.
constexpr std::size_t kActRows = 7301;
constexpr std::size_t kActCols = 64;

/// Dropout at p 0.3 (the TrainConfig default), recording its mask.
void BM_Dropout(benchmark::State& state) {
  Rng rng(10);
  const auto h = tensor::Tensor::uniform(kActRows, kActCols, -1, 1, rng);
  tensor::Tensor mask;
  for (auto _ : state) {
    const tensor::Tensor out = tensor::dropout(h, 0.3f, rng, &mask);
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(mask.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(h.size()));
}
BENCHMARK(BM_Dropout)->Unit(benchmark::kMillisecond);

/// The ReLU gradient with about half the pre-activations negative.
void BM_ReluBackward(benchmark::State& state) {
  Rng rng(11);
  const auto z = tensor::Tensor::uniform(kActRows, kActCols, -1, 1, rng);
  const auto grad = tensor::Tensor::uniform(kActRows, kActCols, -1, 1, rng);
  for (auto _ : state) {
    const tensor::Tensor g = tensor::relu_backward(grad, z);
    benchmark::DoNotOptimize(g.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(z.size()));
}
BENCHMARK(BM_ReluBackward)->Unit(benchmark::kMillisecond);

void BM_CacheLookup(benchmark::State& state) {
  const auto& g = bench_graph();
  const auto policy = static_cast<cache::CachePolicy>(state.range(0));
  cache::DeviceCache dc(policy, 4000, g);
  Rng rng(7);
  std::vector<graph::NodeId> batch;
  for (int i = 0; i < 4000; ++i) {
    batch.push_back(static_cast<graph::NodeId>(
        rng.uniform_index(static_cast<std::uint64_t>(g.num_nodes()))));
  }
  for (auto _ : state) {
    auto res = dc.lookup_and_update(batch);
    benchmark::DoNotOptimize(res.misses.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(batch.size()));
}
BENCHMARK(BM_CacheLookup)
    ->Arg(static_cast<int>(cache::CachePolicy::kStatic))
    ->Arg(static_cast<int>(cache::CachePolicy::kLru))
    ->Arg(static_cast<int>(cache::CachePolicy::kFifo));

void BM_GnnTrainStep(benchmark::State& state) {
  Rng rng(8);
  const auto kind = static_cast<nn::ModelKind>(state.range(0));
  const auto g = [] {
    Rng r(9);
    return graph::power_law_configuration(3000, 2.2, 4, 120, r);
  }();
  nn::ModelConfig mc;
  mc.kind = kind;
  mc.in_dim = 48;
  mc.hidden_dim = 64;
  mc.out_dim = 8;
  mc.num_layers = 2;
  nn::GnnModel model(mc, rng);
  const auto x = tensor::Tensor::uniform(
      static_cast<std::size_t>(g.num_nodes()), 48, -1, 1, rng);
  tensor::Tensor grad(static_cast<std::size_t>(g.num_nodes()), 8, 1e-3f);
  for (auto _ : state) {
    auto out = model.forward(g, x, true, rng);
    model.backward(grad);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GnnTrainStep)
    ->Arg(static_cast<int>(nn::ModelKind::kGcn))
    ->Arg(static_cast<int>(nn::ModelKind::kSage))
    ->Arg(static_cast<int>(nn::ModelKind::kGat));

/// One boosted ensemble's predictions for a full-space DSE query: 10950
/// rows of 31 features, the estimator's row width, read from one
/// feature-major block as PerfEstimator::predict writes it (the block
/// path: the AVX2 complete-tree kernel under kAuto on an AVX2 host).
/// arg: boosting shape, 0 = 40 rounds of depth 2 fitted on 32 rows (the
/// shape of a leave-one-dataset-out corpus under 96 rows), 1 = the
/// default 80 rounds of depth 3 fitted on 128 rows.
void BM_EnsemblePredict(benchmark::State& state) {
  constexpr std::size_t kFeatures = 31;
  const bool small = state.range(0) == 0;
  ml::BoostingParams params;
  if (small) {
    params.num_rounds = 40;
    params.learning_rate = 0.1;
    params.tree.max_depth = 2;
    params.tree.min_samples_leaf = 4;
    params.tree.min_samples_split = 8;
  }
  Rng rng(13);
  const auto draw_rows = [&](std::size_t n) {
    ml::Matrix x(n, std::vector<double>(kFeatures));
    for (auto& row : x) {
      for (double& v : row) v = rng.uniform();
    }
    return x;
  };
  const ml::Matrix train = draw_rows(small ? 32 : 128);
  std::vector<double> y;
  for (const auto& row : train) {
    y.push_back(std::sin(3.0 * row[0]) + row[1] * row[2] +
                (row[5] > 0.5 ? 1.0 : 0.0) + 0.1 * rng.normal());
  }
  ml::GradientBoostingRegressor model(params);
  model.fit(train, y);
  const ml::Matrix rows = draw_rows(10950);
  std::vector<double> block(kFeatures * rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t f = 0; f < kFeatures; ++f) {
      block[f * rows.size() + r] = rows[r][f];
    }
  }
  std::vector<double> out(rows.size());
  for (auto _ : state) {
    model.predict_columns(block, rows.size(), out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["rounds"] = static_cast<double>(model.round_count());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(rows.size()));
}
BENCHMARK(BM_EnsemblePredict)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// pareto_front over n predicted Perfs; 10950 is the feasible set of a
/// full-space query in the navigate-sweep benchmark. Costlier configs are
/// slower, bigger and more accurate (T and Γ correlated, Acc opposing
/// them), and values are rounded as predictions are, so there are ties.
void BM_ParetoFront(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  const auto round_to = [](double v, double step) {
    return std::round(v / step) * step;
  };
  std::vector<dse::PerfPoint> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double cost = rng.uniform();
    points.push_back({round_to(1.0 + 20.0 * cost + rng.uniform(0, 4), 1.0),
                      round_to(0.5 + 8.0 * cost + rng.uniform(0, 2), 0.5),
                      round_to(0.5 + 0.3 * cost + rng.uniform(0, 0.1), 0.01)});
  }
  std::size_t front = 0;
  for (auto _ : state) {
    const std::vector<std::size_t> kept = dse::pareto_front(points);
    front = kept.size();
    benchmark::DoNotOptimize(kept.data());
  }
  state.counters["front"] = static_cast<double>(front);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_ParetoFront)->Arg(1000)->Arg(10950)->Unit(
    benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
