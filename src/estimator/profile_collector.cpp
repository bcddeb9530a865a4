#include "estimator/profile_collector.hpp"

#include "compute/backend.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"

namespace gnav::estimator {

runtime::TrainConfig random_config(Rng& rng) {
  runtime::TrainConfig c;
  c.name = "random";

  const int sampler_die = static_cast<int>(rng.uniform_index(6));
  switch (sampler_die) {
    case 0:
    case 1:  // node-wise is the most common choice in practice
      c.sampler = sampling::SamplerKind::kNodeWise;
      break;
    case 2:
      c.sampler = sampling::SamplerKind::kLayerWise;
      break;
    case 3:
      c.sampler = sampling::SamplerKind::kSaintWalk;
      break;
    case 4:
      c.sampler = sampling::SamplerKind::kCluster;
      break;
    default:
      c.sampler = sampling::SamplerKind::kSaintNode;
      break;
  }

  if (c.sampler == sampling::SamplerKind::kCluster) {
    c.hop_list = {-1};
  } else if (c.sampler == sampling::SamplerKind::kSaintWalk) {
    c.hop_list = std::vector<int>(
        static_cast<std::size_t>(rng.uniform_int(2, 6)), 1);
  } else {
    const auto hops = static_cast<std::size_t>(rng.uniform_int(1, 3));
    static const int kFanouts[] = {3, 5, 8, 10, 15, 20, 25};
    c.hop_list.clear();
    for (std::size_t h = 0; h < hops; ++h) {
      c.hop_list.push_back(kFanouts[rng.uniform_index(7)]);
    }
  }

  static const std::size_t kBatchSizes[] = {128, 256, 512, 1024, 2048};
  c.batch_size = kBatchSizes[rng.uniform_index(5)];
  c.saint_budget_multiplier = rng.uniform(4.0, 12.0);

  static const double kCacheRatios[] = {0.0, 0.05, 0.1, 0.25, 0.4, 0.5};
  c.cache_ratio = kCacheRatios[rng.uniform_index(6)];
  if (c.cache_ratio == 0.0) {
    c.cache_policy = cache::CachePolicy::kNone;
    c.bias_rate = 0.0;
  } else {
    static const cache::CachePolicy kPolicies[] = {
        cache::CachePolicy::kStatic, cache::CachePolicy::kLru,
        cache::CachePolicy::kFifo, cache::CachePolicy::kWeightedDegree};
    c.cache_policy = kPolicies[rng.uniform_index(4)];
    static const double kBias[] = {0.0, 0.0, 0.3, 0.7};
    c.bias_rate = kBias[rng.uniform_index(4)];
  }

  static const nn::ModelKind kModels[] = {
      nn::ModelKind::kGcn, nn::ModelKind::kSage, nn::ModelKind::kGat};
  c.model = kModels[rng.uniform_index(3)];
  static const std::size_t kHidden[] = {32, 64, 128};
  c.hidden_dim = kHidden[rng.uniform_index(3)];
  c.num_layers = static_cast<std::size_t>(rng.uniform_int(2, 3));
  c.reorder = rng.bernoulli(0.3);
  c.compress_features = rng.bernoulli(0.25);
  c.pipeline_overlap = !rng.bernoulli(0.15);
  c.validate();
  return c;
}

std::vector<ProfiledRun> collect_profiles(const graph::Dataset& dataset,
                                          const hw::HardwareProfile& hw,
                                          const CollectorOptions& options) {
  GNAV_CHECK(options.configs_per_dataset >= 1, "need at least one config");
  GNAV_CHECK(compute::BackendFactory::is_registered(options.backend_id),
             "CollectorOptions::backend_id \"" + options.backend_id +
                 "\" is not a registered compute backend");
  runtime::RuntimeBackend backend(dataset, hw);
  const DatasetStats stats = compute_dataset_stats(dataset);
  const std::uint64_t collection_seed =
      options.seed ^ std::hash<std::string>{}(dataset.name);
  Rng rng(collection_seed);
  const auto n = static_cast<std::size_t>(options.configs_per_dataset);
  std::vector<ProfiledRun> out(n);
  // Configs come from one serial RNG stream (order-sensitive); the runs
  // themselves are independent — each is seeded by its index — so they
  // fan out across the pool. This is the profiling hot path: a corpus is
  // configs_per_dataset full training runs per dataset.
  for (std::size_t i = 0; i < n; ++i) {
    out[i].stats = stats;
    out[i].config = random_config(rng);
  }
  support::ThreadPool& pool =
      options.pool ? *options.pool : support::global_pool();
  pool.parallel_for(0, n, [&](std::size_t i) {
    runtime::RunOptions ro;
    ro.epochs = options.epochs;
    ro.evaluate_every_epoch = false;
    ro.record_batch_sizes = true;
    ro.seed = options.seed + static_cast<std::uint64_t>(i) * 7919ULL;
    ro.backend_id = options.backend_id;
    // A controlled fraction of the corpus runs under the async executor
    // so its measured stage walls exist for the overlap-model fit. WHICH
    // rows are async is fixed by index (i % async_every == 0, pinned by
    // test_overlap_model.cpp); the executor shape each async row gets is
    // drawn from this collection's own seed material — never from a
    // process counter or call order — so two interleaved collections
    // (concurrent serve tenants profiling different datasets) still emit
    // exactly the rows a solo collection would, at any pool size. The
    // executor's own contract keeps the data-bearing fields identical.
    if (options.async_every > 0 &&
        i % static_cast<std::size_t>(options.async_every) == 0) {
      static constexpr std::size_t kDepths[] = {1, 2, 4, 8};
      static constexpr std::size_t kWorkers[] = {1, 2, 4};
      const std::size_t k = i / static_cast<std::size_t>(options.async_every);
      const std::uint64_t mix = support::task_seed(
          collection_seed ^ 0xA51CULL, static_cast<std::uint64_t>(k));
      ro.pipeline.mode = runtime::PipelineMode::kAsync;
      ro.pipeline.prefetch_depth = kDepths[mix % 4];
      ro.pipeline.sampler_workers = kWorkers[(mix >> 8) % 3];
    }
    out[i].report = backend.run(out[i].config, ro);
  });
  log_info("profiled ", out.size(), " runs on ", dataset.name);
  return out;
}

std::vector<ProfiledRun> collect_lodo_corpus(
    const std::vector<std::string>& dataset_names,
    const std::string& held_out, int augmentation_graphs,
    const hw::HardwareProfile& hw, const CollectorOptions& options) {
  std::vector<ProfiledRun> corpus;
  for (const std::string& name : dataset_names) {
    if (name == held_out) continue;
    const graph::Dataset ds = graph::load_dataset(name);
    auto runs = collect_profiles(ds, hw, options);
    corpus.insert(corpus.end(), std::make_move_iterator(runs.begin()),
                  std::make_move_iterator(runs.end()));
  }
  CollectorOptions aug_options = options;
  aug_options.configs_per_dataset =
      std::max(1, options.configs_per_dataset / 2);
  for (int i = 0; i < augmentation_graphs; ++i) {
    const graph::Dataset ds = graph::make_power_law_augmentation(
        i, options.seed + 0xABCDULL);
    auto runs = collect_profiles(ds, hw, aug_options);
    corpus.insert(corpus.end(), std::make_move_iterator(runs.begin()),
                  std::make_move_iterator(runs.end()));
  }
  GNAV_CHECK(!corpus.empty(), "empty profiling corpus");
  return corpus;
}

}  // namespace gnav::estimator
