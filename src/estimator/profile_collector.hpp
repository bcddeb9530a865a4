// Profiled-run collection: the estimator's training data. Sec. 4.1: "The
// performance estimator is trained on the ground-truth performance
// covering the whole design space ... established upon the performance
// across all the datasets available, except the one waiting for
// estimation" (leave-one-dataset-out), "randomly generate some power-law
// graphs ... as data enhancement".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compute/backend.hpp"
#include "estimator/dataset_stats.hpp"
#include "hw/platform.hpp"
#include "runtime/backend.hpp"
#include "runtime/train_config.hpp"

namespace gnav::support {
class ThreadPool;
}

namespace gnav::estimator {

struct ProfiledRun {
  DatasetStats stats;
  runtime::TrainConfig config;
  runtime::TrainReport report;
};

struct CollectorOptions {
  /// Number of randomly drawn configurations per dataset.
  int configs_per_dataset = 40;
  /// Profiling epochs per run (1 keeps collection cheap; accuracy targets
  /// use the short-horizon value, which is what the DSE compares anyway).
  int epochs = 2;
  std::uint64_t seed = 99;
  /// Pool the profiled runs execute on (nullptr → global pool). Configs
  /// are drawn serially from one RNG and every run is seeded by its
  /// index, so the corpus is bit-identical at any pool size.
  support::ThreadPool* pool = nullptr;
  /// Every `async_every`-th profiled run (by draw index, per dataset)
  /// executes under the asynchronous pipelined epoch executor, with the
  /// prefetch depth and sampler worker count drawn deterministically from
  /// the collection's own seed material (seed ^ dataset name, mixed per
  /// async row — never a process counter or call order, so interleaved
  /// collections reproduce their solo rows exactly) — so the corpus
  /// carries measured executor walls for the overlap-model fit. The executor's bit-identity contract keeps every
  /// data-bearing report field unchanged; only the wall-clock pipeline
  /// observables (and the executor metadata columns) differ. <= 0
  /// disables async profiling runs entirely.
  int async_every = 4;
  /// Compute backend the profiled runs execute on.
  std::string backend_id = compute::kBlockedBackendId;
};

/// Draws a random-but-valid configuration from the full design space.
runtime::TrainConfig random_config(Rng& rng);

/// Profiles `options.configs_per_dataset` random configs on one dataset.
std::vector<ProfiledRun> collect_profiles(const graph::Dataset& dataset,
                                          const hw::HardwareProfile& hw,
                                          const CollectorOptions& options);

/// Leave-one-dataset-out corpus: profiles on every dataset in
/// `dataset_names` except `held_out`, plus `augmentation_graphs` random
/// power-law graphs.
std::vector<ProfiledRun> collect_lodo_corpus(
    const std::vector<std::string>& dataset_names,
    const std::string& held_out, int augmentation_graphs,
    const hw::HardwareProfile& hw, const CollectorOptions& options);

}  // namespace gnav::estimator
