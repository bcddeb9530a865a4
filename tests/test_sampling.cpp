// Tests for the unified sampler abstraction: structural invariants of all
// sampler kinds (parameterized), bias behavior, batching, and the Eq. 12
// batch-size model.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/dataset.hpp"
#include "graph/generators.hpp"
#include "graph/graph_builder.hpp"
#include "graph/graph_stats.hpp"
#include "runtime/pipeline.hpp"
#include "sampling/batch_size_model.hpp"
#include "sampling/batcher.hpp"
#include "sampling/sampler_factory.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace gnav::sampling {
namespace {

graph::CsrGraph test_graph() {
  Rng rng(42);
  return graph::power_law_configuration(500, 2.2, 3, 60, rng);
}

std::vector<graph::NodeId> pick_seeds(const graph::CsrGraph& g,
                                      std::size_t count, Rng& rng) {
  std::vector<graph::NodeId> seeds;
  for (auto idx : rng.sample_without_replacement(g.num_nodes(),
                                                 static_cast<std::int64_t>(count))) {
    seeds.push_back(idx);
  }
  return seeds;
}

class SamplerInvariants : public ::testing::TestWithParam<SamplerKind> {};

TEST_P(SamplerInvariants, MiniBatchIsWellFormed) {
  const auto g = test_graph();
  Rng rng(7);
  SamplerSettings settings;
  settings.kind = GetParam();
  settings.hop_list = {4, 4};
  const auto sampler = make_sampler(settings, nullptr);
  const auto seeds = pick_seeds(g, 32, rng);

  for (int trial = 0; trial < 5; ++trial) {
    const MiniBatch mb = sampler->sample(g, seeds, rng);
    EXPECT_NO_THROW(mb.validate(g));
    // seeds occupy the first slots in order
    ASSERT_GE(mb.nodes.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      EXPECT_EQ(mb.nodes[i], seeds[i]);
    }
    ASSERT_EQ(mb.seed_local.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      EXPECT_EQ(mb.seed_local[i], static_cast<std::int64_t>(i));
    }
    EXPECT_GT(mb.sampling_work, 0.0);
    // every subgraph edge corresponds to a parent-graph edge
    for (graph::NodeId lv = 0; lv < mb.subgraph.num_nodes(); ++lv) {
      const auto gv = mb.nodes[static_cast<std::size_t>(lv)];
      for (graph::NodeId lu : mb.subgraph.neighbors(lv)) {
        const auto gu = mb.nodes[static_cast<std::size_t>(lu)];
        const auto nb = g.neighbors(gv);
        EXPECT_TRUE(std::binary_search(nb.begin(), nb.end(), gu))
            << "edge (" << gv << "," << gu << ") not in parent";
      }
    }
  }
}

TEST_P(SamplerInvariants, DeterministicGivenRngState) {
  const auto g = test_graph();
  SamplerSettings settings;
  settings.kind = GetParam();
  settings.hop_list = {3, 3};
  const auto sampler = make_sampler(settings, nullptr);
  Rng seed_rng(9);
  const auto seeds = pick_seeds(g, 16, seed_rng);
  Rng a(123);
  Rng b(123);
  const MiniBatch ma = sampler->sample(g, seeds, a);
  const MiniBatch mb = sampler->sample(g, seeds, b);
  EXPECT_EQ(ma.nodes, mb.nodes);
  EXPECT_EQ(ma.subgraph.indices(), mb.subgraph.indices());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SamplerInvariants,
                         ::testing::Values(SamplerKind::kNodeWise,
                                           SamplerKind::kLayerWise,
                                           SamplerKind::kSaintWalk,
                                           SamplerKind::kSaintNode,
                                           SamplerKind::kSaintEdge),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(NodeWiseSampler, FanoutBoundsBatchGrowth) {
  const auto g = test_graph();
  Rng rng(11);
  const auto seeds = pick_seeds(g, 20, rng);
  NodeWiseSampler narrow({2}, {});
  NodeWiseSampler wide({12}, {});
  const auto small = narrow.sample(g, seeds, rng);
  const auto large = wide.sample(g, seeds, rng);
  // 1-hop with fanout k: at most |B0| * (1 + k) vertices.
  EXPECT_LE(small.num_nodes(), static_cast<std::int64_t>(seeds.size() * 3));
  EXPECT_GT(large.num_nodes(), small.num_nodes());
}

TEST(NodeWiseSampler, FullNeighborhoodWithMinusOne) {
  const auto g = test_graph();
  Rng rng(13);
  const std::vector<graph::NodeId> seeds = {0};
  NodeWiseSampler full({-1}, {});
  const auto mb = full.sample(g, seeds, rng);
  EXPECT_EQ(mb.num_nodes(), 1 + g.degree(0));
}

TEST(NodeWiseSampler, BiasPrefersResidentVertices) {
  const auto g = test_graph();
  Rng rng(17);
  // Mark an arbitrary half of the vertices as "cached".
  std::vector<char> preference(static_cast<std::size_t>(g.num_nodes()), 0);
  for (std::size_t v = 0; v < preference.size(); v += 2) preference[v] = 1;

  SamplerSettings biased;
  biased.kind = SamplerKind::kNodeWise;
  biased.hop_list = {5, 5};
  biased.bias_rate = 0.9;
  const auto sampler = make_sampler(biased, &preference);
  SamplerSettings uniform = biased;
  uniform.bias_rate = 0.0;
  const auto base = make_sampler(uniform, nullptr);

  const auto seeds = pick_seeds(g, 40, rng);
  double biased_frac = 0.0;
  double uniform_frac = 0.0;
  for (int t = 0; t < 5; ++t) {
    const auto mb = sampler->sample(g, seeds, rng);
    const auto mu = base->sample(g, seeds, rng);
    auto frac = [&](const MiniBatch& m) {
      std::size_t hits = 0;
      for (auto v : m.nodes) hits += preference[static_cast<std::size_t>(v)];
      return static_cast<double>(hits) / static_cast<double>(m.nodes.size());
    };
    biased_frac += frac(mb);
    uniform_frac += frac(mu);
  }
  EXPECT_GT(biased_frac, uniform_frac + 0.3);
}

TEST(SamplerFactory, ValidatesBiasRate) {
  SamplerSettings s;
  s.bias_rate = 1.5;
  EXPECT_THROW(make_sampler(s, nullptr), Error);
}

TEST(SaintSampler, WalkLengthBoundsBatch) {
  const auto g = test_graph();
  Rng rng(19);
  const auto seeds = pick_seeds(g, 25, rng);
  SaintSampler walker(SaintSampler::Variant::kWalk, 3, 8.0, {});
  const auto mb = walker.sample(g, seeds, rng);
  // each walk adds at most walk_length vertices
  EXPECT_LE(mb.num_nodes(),
            static_cast<std::int64_t>(seeds.size() * (1 + 3)));
  EXPECT_EQ(walker.hop_list(), (std::vector<int>{1, 1, 1}));
}

TEST(SaintSampler, NodeBudgetRespected) {
  const auto g = test_graph();
  Rng rng(23);
  const auto seeds = pick_seeds(g, 10, rng);
  SaintSampler node_sampler(SaintSampler::Variant::kNode, 1, 4.0, {});
  const auto mb = node_sampler.sample(g, seeds, rng);
  EXPECT_LE(mb.num_nodes(), static_cast<std::int64_t>(10 + 10 * 4));
}

// ------------------------------------------------------------------
// Sampler edge cases.

TEST(SamplerEdgeCases, IsolatedSeedVertexYieldsSingletonBatch) {
  // Vertex 4 has no edges at all; every sampler must still produce a
  // well-formed batch containing it.
  graph::GraphBuilder b(5);
  b.add_undirected_edge(0, 1);
  b.add_undirected_edge(1, 2);
  b.add_undirected_edge(2, 3);
  const auto g = b.build();
  const std::vector<graph::NodeId> seeds = {4};
  for (SamplerKind kind :
       {SamplerKind::kNodeWise, SamplerKind::kLayerWise,
        SamplerKind::kSaintWalk, SamplerKind::kSaintNode,
        SamplerKind::kSaintEdge}) {
    Rng rng(41);
    SamplerSettings settings;
    settings.kind = kind;
    settings.hop_list = {3, 3};
    const auto sampler = make_sampler(settings, nullptr);
    const MiniBatch mb = sampler->sample(g, seeds, rng);
    EXPECT_NO_THROW(mb.validate(g)) << to_string(kind);
    ASSERT_GE(mb.nodes.size(), 1u) << to_string(kind);
    EXPECT_EQ(mb.nodes[0], 4) << to_string(kind);
    EXPECT_EQ(mb.seed_local[0], 0) << to_string(kind);
    // The isolated seed contributes no edges of its own.
    EXPECT_EQ(mb.subgraph.degree(0), 0) << to_string(kind);
  }
}

TEST(SamplerEdgeCases, FanoutGreaterThanDegreeKeepsWholeNeighborhood) {
  const auto g = test_graph();
  Rng rng(43);
  const std::vector<graph::NodeId> seeds = {0};
  NodeWiseSampler sampler({1000}, {});
  const auto mb = sampler.sample(g, seeds, rng);
  EXPECT_EQ(mb.num_nodes(), 1 + g.degree(0));
  // Biased variant with k > degree also takes the full-neighborhood
  // path (probabilistic drops only) and must stay well-formed.
  std::vector<char> preference(static_cast<std::size_t>(g.num_nodes()), 0);
  NodeWiseSampler biased({1000}, SamplingBias{&preference, 1.0, nullptr});
  const auto mbb = biased.sample(g, seeds, rng);
  EXPECT_NO_THROW(mbb.validate(g));
  EXPECT_LE(mbb.num_nodes(), mb.num_nodes());
}

TEST(SamplerEdgeCases, SaintNodeBudgetClampedToGraph) {
  const auto g = test_graph();
  Rng rng(47);
  const auto seeds = pick_seeds(g, 50, rng);
  // budget_multiplier x |seeds| = 50000 >> |V| = 500: before the clamp
  // the rejection loop burned budget*30+10 draws and silently returned a
  // short batch; now the batch is exactly the whole graph.
  SaintSampler sampler(SaintSampler::Variant::kNode, 1, 1000.0, {});
  const auto mb = sampler.sample(g, seeds, rng);
  EXPECT_EQ(mb.num_nodes(), g.num_nodes());
  EXPECT_NO_THROW(mb.validate(g));
}

TEST(SamplerEdgeCases, FullyBiasedSamplingWithEmptyPreferenceSet) {
  // bias_rate = 1 with nothing resident: every weighted draw sees only
  // weight-1 vertices (zero preferred mass) and must behave uniformly
  // rather than dividing by zero.
  const auto g = test_graph();
  std::vector<char> preference(static_cast<std::size_t>(g.num_nodes()), 0);
  for (SamplerKind kind :
       {SamplerKind::kNodeWise, SamplerKind::kLayerWise,
        SamplerKind::kSaintWalk, SamplerKind::kSaintNode}) {
    Rng rng(53);
    SamplerSettings settings;
    settings.kind = kind;
    settings.hop_list = {4, 4};
    settings.bias_rate = 1.0;
    const auto sampler = make_sampler(settings, &preference);
    const auto seeds = pick_seeds(g, 16, rng);
    const MiniBatch mb = sampler->sample(g, seeds, rng);
    EXPECT_NO_THROW(mb.validate(g)) << to_string(kind);
    EXPECT_GE(mb.num_nodes(),
              static_cast<std::int64_t>(seeds.size())) << to_string(kind);
  }
}

// ------------------------------------------------------------------
// The per-batch task_seed determinism contract: for every sampler kind
// the epoch's mini-batch stream must be bit-identical whether the epoch
// executor builds it inline or on 1, 2, or 8 async sampler workers.

TEST(SampleStream, BitIdenticalAcrossExecutorShapes) {
  const auto g = test_graph();
  Rng seed_rng(59);
  std::vector<graph::NodeId> train;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) train.push_back(v);
  SeedBatcher batcher(train, 64);
  const auto seed_batches = batcher.epoch_batches(seed_rng);
  const std::uint64_t epoch_seed = 0xEB0C5EEDULL;

  for (SamplerKind kind :
       {SamplerKind::kNodeWise, SamplerKind::kLayerWise,
        SamplerKind::kSaintWalk, SamplerKind::kSaintNode,
        SamplerKind::kSaintEdge, SamplerKind::kCluster}) {
    SamplerSettings settings;
    settings.kind = kind;
    settings.hop_list = {4, 4};
    const auto sampler = make_sampler(settings, nullptr);
    const auto epoch_stream = [&](const runtime::PipelineConfig& config) {
      std::vector<MiniBatch> stream;
      runtime::run_pipelined_epoch<MiniBatch, MiniBatch>(
          seed_batches.size(), config, /*chain_sample_and_prepare=*/false,
          [&](std::size_t i) {
            Rng rng(support::task_seed(epoch_seed, i));
            return sampler->sample(g, seed_batches[i], rng);
          },
          [](std::size_t, MiniBatch&& mb) { return std::move(mb); },
          [&](std::size_t, MiniBatch&& mb) {
            stream.push_back(std::move(mb));
          });
      return stream;
    };

    const std::vector<MiniBatch> reference =
        epoch_stream(runtime::PipelineConfig{});  // sync: inline
    for (std::size_t workers : {1u, 2u, 8u}) {
      runtime::PipelineConfig async;
      async.mode = runtime::PipelineMode::kAsync;
      async.sampler_workers = workers;
      async.prefetch_depth = 4;
      const std::vector<MiniBatch> stream = epoch_stream(async);
      ASSERT_EQ(stream.size(), reference.size()) << to_string(kind);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(stream[i].nodes, reference[i].nodes)
            << to_string(kind) << " batch " << i << " @" << workers;
        EXPECT_EQ(stream[i].seed_local, reference[i].seed_local)
            << to_string(kind) << " batch " << i;
        EXPECT_EQ(stream[i].subgraph.indptr(),
                  reference[i].subgraph.indptr())
            << to_string(kind) << " batch " << i;
        EXPECT_EQ(stream[i].subgraph.indices(),
                  reference[i].subgraph.indices())
            << to_string(kind) << " batch " << i;
        EXPECT_DOUBLE_EQ(stream[i].sampling_work,
                         reference[i].sampling_work)
            << to_string(kind) << " batch " << i;
      }
    }
  }
}

TEST(SeedBatcher, PartitionsTrainSetExactly) {
  std::vector<graph::NodeId> train;
  for (graph::NodeId v = 0; v < 103; ++v) train.push_back(v);
  SeedBatcher batcher(train, 25);
  EXPECT_EQ(batcher.batches_per_epoch(), 5u);  // ceil(103/25)
  Rng rng(29);
  const auto batches = batcher.epoch_batches(rng);
  ASSERT_EQ(batches.size(), 5u);
  std::set<graph::NodeId> seen;
  for (const auto& b : batches) {
    EXPECT_LE(b.size(), 25u);
    for (auto v : b) EXPECT_TRUE(seen.insert(v).second);
  }
  EXPECT_EQ(seen.size(), 103u);
  EXPECT_THROW(SeedBatcher({}, 10), Error);
}

TEST(SeedBatcher, ReshufflesAcrossEpochs) {
  std::vector<graph::NodeId> train;
  for (graph::NodeId v = 0; v < 64; ++v) train.push_back(v);
  SeedBatcher batcher(train, 64);
  Rng rng(31);
  const auto e1 = batcher.epoch_batches(rng);
  const auto e2 = batcher.epoch_batches(rng);
  EXPECT_NE(e1[0], e2[0]);
}

TEST(BatchSizeModel, ExpansionProductMonotone) {
  EXPECT_GT(expansion_product({10, 10}, 20.0, 1.0),
            expansion_product({5, 5}, 20.0, 1.0));
  // fanout above avg degree saturates at avg degree
  EXPECT_DOUBLE_EQ(expansion_product({100}, 10.0, 1.0),
                   expansion_product({-1}, 10.0, 1.0));
  EXPECT_THROW(expansion_product({5}, 10.0, 0.0), Error);
}

TEST(BatchSizeModel, AnalyticBoundedByGraphAndBatch) {
  const auto g = test_graph();
  const auto profile = graph::profile_graph(g);
  const double e = analytic_batch_size(64, {10, 10}, profile, 0.8);
  EXPECT_GE(e, 64.0);
  EXPECT_LE(e, static_cast<double>(profile.num_nodes));
  // Never below the tree bound's saturation inverse: larger batches ->
  // larger expectation.
  EXPECT_GT(analytic_batch_size(128, {10, 10}, profile, 0.8), e);
}

TEST(BatchSizeModel, AnalyticTracksMeasuredWithinFactorTwo) {
  // The analytic core should be in the right ballpark before any learned
  // penalty (this is what makes the gray-box estimator data-efficient).
  const auto ds = graph::load_dataset("reddit2");
  const auto profile = graph::profile_graph(ds.graph);
  Rng rng(37);
  SamplerSettings settings;
  settings.kind = SamplerKind::kNodeWise;
  settings.hop_list = {10, 10};
  const auto sampler = make_sampler(settings, nullptr);
  std::vector<graph::NodeId> seeds = pick_seeds(ds.graph, 256, rng);
  double measured = 0.0;
  const int trials = 3;
  for (int t = 0; t < trials; ++t) {
    measured += static_cast<double>(
        sampler->sample(ds.graph, seeds, rng).num_nodes());
  }
  measured /= trials;
  const double analytic = analytic_batch_size(256, {10, 10}, profile, 0.82);
  EXPECT_GT(analytic, measured * 0.5);
  EXPECT_LT(analytic, measured * 2.0);
}

}  // namespace
}  // namespace gnav::sampling
