// Thread-pool scaling benchmark for the two pool-parallel hot paths:
//
//   1. profile collection  (estimator training corpus; dominates DSE setup)
//   2. explorer candidate scoring (exhaustive sweep over a design space)
//
// (A training run's own epoch concurrency is the epoch executor's, not
// the pool's; bench_pipeline sweeps it.)
//
// Each path runs at 1/2/4/8 pool threads and reports wall time and
// speedup vs 1 thread, plus a determinism checksum that must not change
// with the thread count. On a single-core host the speedup columns
// degenerate to ~1.0x; run on a multi-core machine to see scaling.
#include <chrono>
#include <cstdio>
#include <vector>

#include "dse/design_space.hpp"
#include "dse/explorer.hpp"
#include "estimator/perf_estimator.hpp"
#include "estimator/profile_collector.hpp"
#include "graph/dataset.hpp"
#include "support/parallel.hpp"

using namespace gnav;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct PathResult {
  double wall_s = 0.0;
  double checksum = 0.0;
};

PathResult bench_profile_collection(const graph::Dataset& ds,
                                    const hw::HardwareProfile& hw,
                                    support::ThreadPool& pool) {
  estimator::CollectorOptions opts;
  opts.configs_per_dataset = 16;
  opts.epochs = 1;
  opts.seed = 7;
  opts.pool = &pool;
  const auto start = std::chrono::steady_clock::now();
  const auto corpus = estimator::collect_profiles(ds, hw, opts);
  PathResult r;
  r.wall_s = seconds_since(start);
  for (const auto& run : corpus) {
    r.checksum += run.report.epoch_time_s + run.report.test_accuracy;
  }
  return r;
}

PathResult bench_explorer(const dse::DesignSpace& space,
                          const estimator::PerfEstimator& est,
                          const estimator::DatasetStats& stats,
                          support::ThreadPool& pool) {
  dse::Explorer explorer(space, est, stats);
  explorer.set_pool(&pool);
  const auto start = std::chrono::steady_clock::now();
  const auto result = explorer.explore_exhaustive(dse::RuntimeConstraints{});
  PathResult r;
  r.wall_s = seconds_since(start);
  for (const auto& cand : result.feasible) {
    r.checksum += cand.predicted.time_s + cand.predicted.accuracy;
  }
  return r;
}

void report_path(const char* name, const std::vector<int>& threads,
                 const std::vector<PathResult>& results) {
  std::printf("%-22s", name);
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("  %6.2fs (%4.2fx)", results[i].wall_s,
                results[0].wall_s / results[i].wall_s);
  }
  bool deterministic = true;
  for (const auto& r : results) {
    deterministic = deterministic && r.checksum == results[0].checksum;
  }
  std::printf("  %s\n", deterministic ? "bit-identical" : "MISMATCH!");
  (void)threads;
}

}  // namespace

int main() {
  const auto hw = hw::make_profile("rtx4090");
  const auto ds = graph::make_power_law_augmentation(0, 3);
  const auto stats = estimator::compute_dataset_stats(ds);

  // One shared corpus/estimator for the explorer path (built once).
  estimator::CollectorOptions fit_opts;
  fit_opts.configs_per_dataset = 16;
  fit_opts.epochs = 1;
  fit_opts.seed = 7;
  estimator::PerfEstimator est(hw);
  est.fit(estimator::collect_profiles(ds, hw, fit_opts));
  const auto space = dse::DesignSpace::full(dse::BaseSettings{});

  const std::vector<int> threads = {1, 2, 4, 8};
  std::printf("pool threads:         ");
  for (int t : threads) std::printf("  %9d      ", t);
  std::printf("\n");

  std::vector<PathResult> collect, explore;
  for (int t : threads) {
    support::ThreadPool pool(static_cast<std::size_t>(t));
    collect.push_back(bench_profile_collection(ds, hw, pool));
    explore.push_back(bench_explorer(space, est, stats, pool));
  }
  report_path("profile collection", threads, collect);
  report_path("explorer sweep", threads, explore);
  return 0;
}
