// Tests for the support/parallel thread pool and for the determinism
// contract it imposes on the hot paths: profile collection, backend runs,
// estimator predictions, and the explorer's Pareto front must be
// bit-identical whether the pool runs 1 or 8 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "dse/design_space.hpp"
#include "dse/explorer.hpp"
#include "estimator/perf_estimator.hpp"
#include "estimator/profile_collector.hpp"
#include "graph/dataset.hpp"
#include "runtime/templates.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace gnav::support {
namespace {

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit(
      []() -> int { throw std::runtime_error("worker boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // Empty and single-element ranges.
  std::atomic<int> count{0};
  pool.parallel_for(5, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  pool.parallel_for(5, 6, [&](std::size_t i) {
    EXPECT_EQ(i, 5u);
    ++count;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000,
                        [](std::size_t i) {
                          if (i == 137) throw Error("index 137 failed");
                        }),
      Error);
  // Pool is still usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64 * 8);
  pool.parallel_for(0, 64, [&](std::size_t outer) {
    EXPECT_TRUE(ThreadPool::in_worker());
    // Nested call must not deadlock the 2-worker pool; it runs inline.
    pool.parallel_for(0, 8, [&](std::size_t inner) {
      ++hits[outer * 8 + inner];
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedSubmitExecutesEagerly) {
  ThreadPool pool(1);  // a single worker would deadlock without eagerness
  auto outer = pool.submit([&pool] {
    auto inner = pool.submit([] { return 41; });
    return inner.get() + 1;
  });
  EXPECT_EQ(outer.get(), 42);
}

TEST(TaskSeed, DeterministicAndDistinct) {
  EXPECT_EQ(task_seed(99, 0), task_seed(99, 0));
  EXPECT_NE(task_seed(99, 0), task_seed(99, 1));
  EXPECT_NE(task_seed(99, 0), task_seed(100, 0));
  // Adjacent indices must not produce near-identical seeds.
  EXPECT_NE(task_seed(99, 1) - task_seed(99, 0),
            task_seed(99, 2) - task_seed(99, 1));
}

TEST(GlobalPool, HasAtLeastOneWorker) {
  EXPECT_GE(global_pool().size(), 1u);
  EXPECT_GE(default_thread_count(), 1u);
}

// ---------------------------------------------------------------------
// Determinism regression: the same seed must produce bit-identical
// results at any pool size. Each stage of the stack is checked with a
// 1-thread and an 8-thread pool.

class PoolDeterminismFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hw_ = new hw::HardwareProfile(hw::make_profile("rtx4090"));
    dataset_ = new graph::Dataset(graph::make_power_law_augmentation(0, 3));
    pool1_ = new ThreadPool(1);
    pool8_ = new ThreadPool(8);
  }
  static void TearDownTestSuite() {
    delete pool1_;
    delete pool8_;
    delete dataset_;
    delete hw_;
  }

  static estimator::CollectorOptions collector_options(ThreadPool* pool) {
    estimator::CollectorOptions opts;
    opts.configs_per_dataset = 10;
    opts.epochs = 1;
    opts.seed = 31;
    opts.pool = pool;
    return opts;
  }

  static hw::HardwareProfile* hw_;
  static graph::Dataset* dataset_;
  static ThreadPool* pool1_;
  static ThreadPool* pool8_;
};

hw::HardwareProfile* PoolDeterminismFixture::hw_ = nullptr;
graph::Dataset* PoolDeterminismFixture::dataset_ = nullptr;
ThreadPool* PoolDeterminismFixture::pool1_ = nullptr;
ThreadPool* PoolDeterminismFixture::pool8_ = nullptr;

TEST_F(PoolDeterminismFixture, BackendRunIsPoolSizeInvariant) {
  runtime::RuntimeBackend backend(*dataset_, *hw_);
  runtime::TrainConfig config = runtime::template_pyg();
  config.batch_size = 256;
  runtime::RunOptions opts;
  opts.epochs = 2;
  opts.seed = 5;
  // From the main thread nested CSR builds and SpMM fan out to the global
  // pool; from inside a worker of either pool they run inline.
  const runtime::TrainReport a = backend.run(config, opts);
  for (ThreadPool* pool : {pool1_, pool8_}) {
    const runtime::TrainReport b =
        pool->submit([&] { return backend.run(config, opts); }).get();
    EXPECT_DOUBLE_EQ(a.epoch_time_s, b.epoch_time_s);
    EXPECT_DOUBLE_EQ(a.peak_memory_gb, b.peak_memory_gb);
    EXPECT_DOUBLE_EQ(a.test_accuracy, b.test_accuracy);
    EXPECT_DOUBLE_EQ(a.avg_batch_nodes, b.avg_batch_nodes);
    EXPECT_DOUBLE_EQ(a.avg_batch_edges, b.avg_batch_edges);
    ASSERT_EQ(a.per_batch_nodes.size(), b.per_batch_nodes.size());
    for (std::size_t i = 0; i < a.per_batch_nodes.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.per_batch_nodes[i], b.per_batch_nodes[i]);
    }
  }
}

TEST_F(PoolDeterminismFixture, EstimatorPredictionsArePoolSizeInvariant) {
  const auto corpus1 =
      collect_profiles(*dataset_, *hw_, collector_options(pool1_));
  const auto corpus8 =
      collect_profiles(*dataset_, *hw_, collector_options(pool8_));
  ASSERT_EQ(corpus1.size(), corpus8.size());
  for (std::size_t i = 0; i < corpus1.size(); ++i) {
    EXPECT_TRUE(corpus1[i].config == corpus8[i].config);
    EXPECT_DOUBLE_EQ(corpus1[i].report.epoch_time_s,
                     corpus8[i].report.epoch_time_s);
    EXPECT_DOUBLE_EQ(corpus1[i].report.peak_memory_gb,
                     corpus8[i].report.peak_memory_gb);
    EXPECT_DOUBLE_EQ(corpus1[i].report.test_accuracy,
                     corpus8[i].report.test_accuracy);
  }

  estimator::PerfEstimator est1(*hw_);
  estimator::PerfEstimator est8(*hw_);
  est1.fit(corpus1);
  est8.fit(corpus8);
  const estimator::DatasetStats stats =
      estimator::compute_dataset_stats(*dataset_);
  for (const runtime::TrainConfig& config : runtime::all_templates()) {
    const auto p1 = est1.predict(config, stats);
    const auto p8 = est8.predict(config, stats);
    EXPECT_DOUBLE_EQ(p1.time_s, p8.time_s);
    EXPECT_DOUBLE_EQ(p1.memory_gb, p8.memory_gb);
    EXPECT_DOUBLE_EQ(p1.accuracy, p8.accuracy);
  }
}

TEST_F(PoolDeterminismFixture, ExplorerParetoFrontIsPoolSizeInvariant) {
  const auto corpus =
      collect_profiles(*dataset_, *hw_, collector_options(pool1_));
  estimator::PerfEstimator est(*hw_);
  est.fit(corpus);
  const estimator::DatasetStats stats =
      estimator::compute_dataset_stats(*dataset_);
  const dse::DesignSpace space = dse::DesignSpace::reduced(dse::BaseSettings{});

  dse::Explorer ex1(space, est, stats);
  ex1.set_pool(pool1_);
  dse::Explorer ex8(space, est, stats);
  ex8.set_pool(pool8_);
  dse::RuntimeConstraints constraints;
  const auto r1 = ex1.explore(constraints, runtime::all_templates());
  const auto r8 = ex8.explore(constraints, runtime::all_templates());

  EXPECT_EQ(r1.stats.leaves_evaluated, r8.stats.leaves_evaluated);
  ASSERT_EQ(r1.feasible.size(), r8.feasible.size());
  for (std::size_t i = 0; i < r1.feasible.size(); ++i) {
    EXPECT_TRUE(r1.feasible[i].config == r8.feasible[i].config);
    EXPECT_DOUBLE_EQ(r1.feasible[i].predicted.time_s,
                     r8.feasible[i].predicted.time_s);
    EXPECT_DOUBLE_EQ(r1.feasible[i].predicted.memory_gb,
                     r8.feasible[i].predicted.memory_gb);
    EXPECT_DOUBLE_EQ(r1.feasible[i].predicted.accuracy,
                     r8.feasible[i].predicted.accuracy);
  }
  ASSERT_EQ(r1.pareto.size(), r8.pareto.size());
  for (std::size_t i = 0; i < r1.pareto.size(); ++i) {
    EXPECT_EQ(r1.pareto[i], r8.pareto[i]);
  }
}

}  // namespace
}  // namespace gnav::support
