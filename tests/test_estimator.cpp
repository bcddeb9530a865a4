// Tests for the gray-box performance estimator stack: features, profiled
// corpus collection, batch-size models (gray vs black box), and the full
// PerfEstimator's accuracy and monotonicity properties.
//
// The profiled corpus is built once in a shared fixture (profiling runs
// train real models, so this is the slowest test file).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include <cstdio>

#include "dse/design_space.hpp"
#include "estimator/batch_size_estimator.hpp"
#include "estimator/corpus_io.hpp"
#include "estimator/features.hpp"
#include "estimator/overlap_model.hpp"
#include "estimator/perf_estimator.hpp"
#include "estimator/profile_collector.hpp"
#include "ml/metrics.hpp"
#include "ml/ridge.hpp"
#include "runtime/templates.hpp"
#include "support/error.hpp"
#include "support/simd.hpp"
#include "support/string_utils.hpp"

namespace gnav::estimator {
namespace {

class EstimatorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hw_ = new hw::HardwareProfile(hw::make_profile("rtx4090"));
    dataset_ = new graph::Dataset(graph::make_power_law_augmentation(0, 3));
    stats_ = new DatasetStats(compute_dataset_stats(*dataset_));
    // 48 configs is the smallest corpus where the time residual model
    // generalizes consistently rather than by luck of the holdout draw
    // (at 24 the out-of-sample time r2 swings from -0.25 to 0.6 across
    // holdout seeds).
    CollectorOptions opts;
    opts.configs_per_dataset = 48;
    opts.epochs = 1;
    opts.seed = 12;
    corpus_ = new std::vector<ProfiledRun>(
        collect_profiles(*dataset_, *hw_, opts));
    // Out-of-sample runs on the same dataset for generalization checks.
    CollectorOptions test_opts = opts;
    test_opts.seed = 555;
    test_opts.configs_per_dataset = 8;
    holdout_ = new std::vector<ProfiledRun>(
        collect_profiles(*dataset_, *hw_, test_opts));
    // Cross-dataset holdout (a different augmentation graph): the regime
    // where the paper claims the analytic gray-box core transfers and a
    // pure black box does not.
    cross_dataset_ = new graph::Dataset(
        graph::make_power_law_augmentation(2, 3));
    cross_holdout_ = new std::vector<ProfiledRun>(
        collect_profiles(*cross_dataset_, *hw_, test_opts));
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete holdout_;
    delete cross_holdout_;
    delete stats_;
    delete dataset_;
    delete cross_dataset_;
    delete hw_;
  }

  static hw::HardwareProfile* hw_;
  static graph::Dataset* dataset_;
  static graph::Dataset* cross_dataset_;
  static DatasetStats* stats_;
  static std::vector<ProfiledRun>* corpus_;
  static std::vector<ProfiledRun>* holdout_;
  static std::vector<ProfiledRun>* cross_holdout_;
};

hw::HardwareProfile* EstimatorFixture::hw_ = nullptr;
graph::Dataset* EstimatorFixture::dataset_ = nullptr;
graph::Dataset* EstimatorFixture::cross_dataset_ = nullptr;
DatasetStats* EstimatorFixture::stats_ = nullptr;
std::vector<ProfiledRun>* EstimatorFixture::corpus_ = nullptr;
std::vector<ProfiledRun>* EstimatorFixture::holdout_ = nullptr;
std::vector<ProfiledRun>* EstimatorFixture::cross_holdout_ = nullptr;

TEST(DatasetStats, CapturesCoverageCurve) {
  const auto ds = graph::load_dataset("reddit2");
  const DatasetStats s = compute_dataset_stats(ds);
  EXPECT_EQ(s.name, "reddit2");
  EXPECT_GT(s.coverage_at_10, 0.0);
  EXPECT_GE(s.coverage_at_25, s.coverage_at_10);
  EXPECT_GE(s.coverage_at_50, s.coverage_at_25);
  EXPECT_GT(s.num_train_nodes, 0u);
}

TEST(Features, WidthMatchesNamesAndVariesWithConfig) {
  const auto ds = graph::load_dataset("reddit2");
  const DatasetStats s = compute_dataset_stats(ds);
  const auto hw = hw::make_profile("rtx4090");
  const auto f1 = extract_features(runtime::template_pyg(), s, hw);
  EXPECT_EQ(f1.size(), feature_names().size());
  const auto f2 = extract_features(runtime::template_pagraph_full(), s, hw);
  EXPECT_NE(f1, f2);
}

TEST(Features, CacheHitPriorMonotoneInRatio) {
  const auto ds = graph::load_dataset("reddit2");
  const DatasetStats s = compute_dataset_stats(ds);
  runtime::TrainConfig c = runtime::template_pagraph_low();
  double prev = -1.0;
  for (double r : {0.05, 0.1, 0.2, 0.3, 0.5, 0.8}) {
    c.cache_ratio = r;
    const double prior = analytic_cache_hit_prior(c, s);
    EXPECT_GT(prior, prev);
    EXPECT_LE(prior, 1.0);
    prev = prior;
  }
  c = runtime::template_pyg();
  EXPECT_DOUBLE_EQ(analytic_cache_hit_prior(c, s), 0.0);
}

TEST(Features, AnalyticFlopsGrowWithModelSize) {
  const auto ds = graph::load_dataset("reddit2");
  const DatasetStats s = compute_dataset_stats(ds);
  runtime::TrainConfig small = runtime::template_pyg();
  small.hidden_dim = 32;
  runtime::TrainConfig big = small;
  big.hidden_dim = 128;
  EXPECT_GT(analytic_model_flops(big, s, 1000, 5000),
            analytic_model_flops(small, s, 1000, 5000));
}

TEST_F(EstimatorFixture, RandomConfigsAreValidAndDiverse) {
  Rng rng(99);
  bool saw_cache = false;
  bool saw_no_cache = false;
  bool saw_saint = false;
  for (int i = 0; i < 60; ++i) {
    const auto c = random_config(rng);
    EXPECT_NO_THROW(c.validate());
    saw_cache |= c.cache_ratio > 0.0;
    saw_no_cache |= c.cache_ratio == 0.0;
    saw_saint |= c.sampler == sampling::SamplerKind::kSaintWalk;
  }
  EXPECT_TRUE(saw_cache);
  EXPECT_TRUE(saw_no_cache);
  EXPECT_TRUE(saw_saint);
}

TEST_F(EstimatorFixture, CorpusIsPopulated) {
  ASSERT_EQ(corpus_->size(), 48u);
  for (const auto& run : *corpus_) {
    EXPECT_GT(run.report.epoch_time_s, 0.0);
    EXPECT_GT(run.report.peak_memory_gb, 0.0);
    EXPECT_GT(run.report.avg_batch_nodes, 0.0);
  }
}

TEST_F(EstimatorFixture, GrayBoxBatchModelBeatsBlackBoxOutOfSample) {
  GrayBoxBatchSizeEstimator gray;
  BlackBoxBatchSizeEstimator black;
  gray.fit(*corpus_, *hw_);
  black.fit(*corpus_, *hw_);
  std::vector<double> y_true;
  std::vector<double> y_gray;
  std::vector<double> y_black;
  for (const auto& run : *cross_holdout_) {
    y_true.push_back(run.report.avg_batch_nodes);
    y_gray.push_back(gray.predict(run.config, run.stats, *hw_));
    y_black.push_back(black.predict(run.config, run.stats, *hw_));
  }
  const double r2_gray = ml::r2_score(y_true, y_gray);
  const double r2_black = ml::r2_score(y_true, y_black);
  // Fig. 5's claim: the analytic core makes the gray box far more
  // faithful out of sample. On a graph never profiled, the black box has
  // nothing to anchor its dataset features and falls apart (r2 <= 0 in
  // practice), while Eq. 12's analytic skeleton transfers.
  EXPECT_GT(r2_gray, 0.75);
  EXPECT_GE(r2_gray, r2_black - 0.05);
}

TEST_F(EstimatorFixture, PredictBeforeFitThrows) {
  GrayBoxBatchSizeEstimator gray;
  EXPECT_THROW(
      gray.predict(runtime::template_pyg(), *stats_, *hw_), Error);
  PerfEstimator est(*hw_);
  EXPECT_THROW(est.predict(runtime::template_pyg(), *stats_), Error);
  EXPECT_THROW(est.fit({}), Error);
}

TEST_F(EstimatorFixture, CorpusRoundTripsThroughCsv) {
  const std::string path = "test_corpus_roundtrip.csv";
  save_corpus(*corpus_, path);
  const auto loaded = load_corpus(path);
  ASSERT_EQ(loaded.size(), corpus_->size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_TRUE(loaded[i].config == (*corpus_)[i].config);
    EXPECT_DOUBLE_EQ(loaded[i].report.epoch_time_s,
                     (*corpus_)[i].report.epoch_time_s);
    EXPECT_DOUBLE_EQ(loaded[i].report.test_accuracy,
                     (*corpus_)[i].report.test_accuracy);
    EXPECT_EQ(loaded[i].stats.name, (*corpus_)[i].stats.name);
    EXPECT_DOUBLE_EQ(loaded[i].stats.real_volume_scale,
                     (*corpus_)[i].stats.real_volume_scale);
    // Executor overlap columns (f_overlapping fitting data) round-trip,
    // including the v2 executor-config and stall columns — and the
    // sync/async split survives, so OverlapModel eligibility is
    // identical before and after the round-trip.
    const auto& pl = loaded[i].report.pipeline;
    const auto& po = (*corpus_)[i].report.pipeline;
    EXPECT_DOUBLE_EQ(pl.modeled_sequential_s, po.modeled_sequential_s);
    EXPECT_DOUBLE_EQ(pl.measured_wall_s, po.measured_wall_s);
    EXPECT_EQ(pl.executor, po.executor);
    EXPECT_EQ(pl.prefetch_depth, po.prefetch_depth);
    EXPECT_EQ(pl.sampler_workers, po.sampler_workers);
    EXPECT_EQ(pl.push_stalls, po.push_stalls);
    EXPECT_EQ(pl.pop_stalls, po.pop_stalls);
    EXPECT_DOUBLE_EQ(pl.mean_queue_occupancy, po.mean_queue_occupancy);
    EXPECT_EQ(OverlapModel::row_eligible(loaded[i]),
              OverlapModel::row_eligible((*corpus_)[i]));
    // v3: the compute-backend id survives the round-trip (blank cells
    // would load as cpu-blocked, but the collector always stamps the
    // resolved id).
    EXPECT_EQ(loaded[i].report.backend_id, (*corpus_)[i].report.backend_id);
    EXPECT_FALSE(loaded[i].report.backend_id.empty());
    // NaN-free contract: every wall/stall cell parses to a finite value
    // (sync rows included — their zeros are legitimate data).
    EXPECT_TRUE(std::isfinite(pl.sample_wall_s));
    EXPECT_TRUE(std::isfinite(pl.transfer_wall_s));
    EXPECT_TRUE(std::isfinite(pl.compute_wall_s));
    EXPECT_TRUE(std::isfinite(pl.measured_wall_s));
    EXPECT_TRUE(std::isfinite(pl.mean_queue_occupancy));
  }
  // The profiled corpus genuinely contains both executors (the async
  // fraction the collector schedules), so the overlap model can fit
  // from a reloaded file alone.
  bool saw_async = false;
  bool saw_sync = false;
  for (const auto& run : loaded) {
    saw_async |= run.report.pipeline.executor == "async";
    saw_sync |= run.report.pipeline.executor == "sync";
  }
  EXPECT_TRUE(saw_async);
  EXPECT_TRUE(saw_sync);
  // A loaded corpus must be usable for fitting.
  PerfEstimator est(*hw_);
  EXPECT_NO_THROW(est.fit(loaded));
  EXPECT_TRUE(est.overlap_model().is_fitted());
  std::remove(path.c_str());
  EXPECT_THROW(load_corpus("no-such-file.csv"), Error);
}

TEST_F(EstimatorFixture, LegacyV1CorpusMigratesWithSyncDefaults) {
  // Rewrite a v3 file into the PR 4-era v1 layout: no version line, the
  // legacy header, and neither executor nor backend cells in the rows.
  // Loading must succeed with the executor fields defaulted to sync rows
  // and the backend defaulted to cpu-blocked.
  const std::string v3_path = "test_corpus_v3.csv";
  const std::string v1_path = "test_corpus_v1.csv";
  save_corpus(*corpus_, v3_path);
  {
    std::ifstream in(v3_path);
    std::ofstream out(v1_path);
    std::string line;
    ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));  // version
    ASSERT_TRUE(starts_with(line, "#"));
    ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));  // v3 header
    std::string header = line;
    const std::string post_v1_cols =
        "executor,prefetch_depth,sampler_workers,push_stalls,pop_stalls,"
        "mean_queue_occupancy,backend,";
    const auto at = header.find(post_v1_cols);
    ASSERT_NE(at, std::string::npos);
    out << header.erase(at, post_v1_cols.size()) << '\n';
    while (std::getline(in, line)) {
      const auto quote = line.find('"');
      ASSERT_NE(quote, std::string::npos);
      std::string scalars = line.substr(0, quote);
      auto cells = split(scalars, ',');
      ASSERT_EQ(cells.size(), 43u);  // 42 scalars + empty tail
      cells.erase(cells.begin() + 35, cells.begin() + 42);
      out << join(cells, ",") << line.substr(quote) << '\n';
    }
  }
  const auto migrated = load_corpus(v1_path);
  ASSERT_EQ(migrated.size(), corpus_->size());
  for (std::size_t i = 0; i < migrated.size(); ++i) {
    const auto& p = migrated[i].report.pipeline;
    EXPECT_EQ(p.executor, "sync");  // defaulted: v1 had no executor column
    EXPECT_EQ(p.push_stalls, 0u);
    EXPECT_FALSE(OverlapModel::row_eligible(migrated[i]));
    EXPECT_EQ(migrated[i].report.backend_id, "cpu-blocked");  // defaulted
    EXPECT_DOUBLE_EQ(migrated[i].report.epoch_time_s,
                     (*corpus_)[i].report.epoch_time_s);
    EXPECT_DOUBLE_EQ(migrated[i].report.pipeline.measured_wall_s,
                     (*corpus_)[i].report.pipeline.measured_wall_s);
  }
  // Migrated corpora still fit the estimator; the overlap model simply
  // stays on the analytic fallback (no async rows survived migration).
  PerfEstimator est(*hw_);
  EXPECT_NO_THROW(est.fit(migrated));
  EXPECT_FALSE(est.overlap_model().is_fitted());
  std::remove(v3_path.c_str());
  std::remove(v1_path.c_str());
}

TEST_F(EstimatorFixture, V2CorpusMigratesWithDefaultBackendAndV3RoundTrips) {
  // Part 1 — v2 migration: rewrite a v3 file into the v2 layout (v2
  // version token, no backend column) and load it. Every row must come
  // back with backend "cpu-blocked" — the backend all pre-backend runs
  // executed on — with the executor columns intact.
  const std::string v3_path = "test_corpus_v3_mig.csv";
  const std::string v2_path = "test_corpus_v2_mig.csv";
  save_corpus(*corpus_, v3_path);
  {
    std::ifstream in(v3_path);
    std::ofstream out(v2_path);
    std::string line;
    ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));  // version
    ASSERT_EQ(line, "# gnav-corpus-version 3");
    out << "# gnav-corpus-version 2\n";
    ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));  // v3 header
    std::string header = line;
    const std::string backend_col = "backend,";
    const auto at = header.find(backend_col);
    ASSERT_NE(at, std::string::npos);
    out << header.erase(at, backend_col.size()) << '\n';
    while (std::getline(in, line)) {
      const auto quote = line.find('"');
      ASSERT_NE(quote, std::string::npos);
      std::string scalars = line.substr(0, quote);
      auto cells = split(scalars, ',');
      ASSERT_EQ(cells.size(), 43u);  // 42 scalars + empty tail
      cells.erase(cells.begin() + 41);  // the backend cell
      out << join(cells, ",") << line.substr(quote) << '\n';
    }
  }
  const auto migrated = load_corpus(v2_path);
  ASSERT_EQ(migrated.size(), corpus_->size());
  for (std::size_t i = 0; i < migrated.size(); ++i) {
    EXPECT_EQ(migrated[i].report.backend_id, "cpu-blocked");
    EXPECT_EQ(migrated[i].report.pipeline.executor,
              (*corpus_)[i].report.pipeline.executor);
    EXPECT_EQ(OverlapModel::row_eligible(migrated[i]),
              OverlapModel::row_eligible((*corpus_)[i]));
    EXPECT_DOUBLE_EQ(migrated[i].report.epoch_time_s,
                     (*corpus_)[i].report.epoch_time_s);
  }
  // Part 2 — saving a migrated corpus upgrades it to v3, and non-default
  // backend ids survive the save/load cycle verbatim.
  std::vector<ProfiledRun> upgraded = migrated;
  for (std::size_t i = 0; i < upgraded.size(); ++i) {
    if (i % 2 == 1) upgraded[i].report.backend_id = "cpu-arena";
  }
  save_corpus(upgraded, v3_path);
  {
    std::ifstream check(v3_path);
    std::string first;
    ASSERT_TRUE(static_cast<bool>(std::getline(check, first)));
    EXPECT_EQ(first, "# gnav-corpus-version 3");
  }
  const auto reloaded = load_corpus(v3_path);
  ASSERT_EQ(reloaded.size(), upgraded.size());
  for (std::size_t i = 0; i < reloaded.size(); ++i) {
    EXPECT_EQ(reloaded[i].report.backend_id,
              i % 2 == 1 ? "cpu-arena" : "cpu-blocked");
  }
  // Part 3 — the backend column is provenance only. An estimator fitted
  // on the all-cpu-blocked rows and one fitted on the same rows with
  // every odd one relabeled (to an id this build no longer registers)
  // predict the same bits for every corpus config.
  PerfEstimator on_migrated(*hw_);
  on_migrated.fit(migrated);
  PerfEstimator on_upgraded(*hw_);
  on_upgraded.fit(upgraded);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < migrated.size(); ++i) {
    const ProfiledRun& run = migrated[i];
    const PerfPrediction a = on_migrated.predict(run.config, run.stats);
    const PerfPrediction b = on_upgraded.predict(run.config, run.stats);
    EXPECT_EQ(bits(a.time_s), bits(b.time_s)) << "row " << i;
    EXPECT_EQ(bits(a.memory_gb), bits(b.memory_gb)) << "row " << i;
    EXPECT_EQ(bits(a.accuracy), bits(b.accuracy)) << "row " << i;
    EXPECT_EQ(bits(a.overlap_ratio), bits(b.overlap_ratio)) << "row " << i;
  }
  std::remove(v3_path.c_str());
  std::remove(v2_path.c_str());
}

TEST_F(EstimatorFixture, HeaderMismatchNamesFileAndExpectation) {
  const std::string path = "test_corpus_badheader.csv";
  {
    std::ofstream out(path);
    out << "totally,unrelated,header\n1,2,3\n";
  }
  try {
    load_corpus(path);
    FAIL() << "expected a header-mismatch error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos)
        << "error must name the offending file: " << msg;
    EXPECT_NE(msg.find("expected"), std::string::npos) << msg;
    EXPECT_NE(msg.find("totally,unrelated,header"), std::string::npos)
        << "error must echo the found header: " << msg;
  }
  std::remove(path.c_str());
}

TEST_F(EstimatorFixture, PerfEstimatorInSampleQuality) {
  PerfEstimator est(*hw_);
  est.fit(*corpus_);
  std::vector<double> t_true, t_pred, m_true, m_pred, a_true, a_pred;
  for (const auto& run : *corpus_) {
    const PerfPrediction p = est.predict(run.config, run.stats);
    t_true.push_back(run.report.epoch_time_s);
    t_pred.push_back(p.time_s);
    m_true.push_back(run.report.peak_memory_gb);
    m_pred.push_back(p.memory_gb);
    a_true.push_back(run.report.test_accuracy);
    a_pred.push_back(p.accuracy);
  }
  EXPECT_GT(ml::r2_score(t_true, t_pred), 0.8);
  EXPECT_GT(ml::r2_score(m_true, m_pred), 0.8);
  EXPECT_LT(ml::mse(a_true, a_pred), 0.05);
}

TEST_F(EstimatorFixture, PerfEstimatorGeneralizesOutOfSample) {
  PerfEstimator est(*hw_);
  est.fit(*corpus_);
  std::vector<double> t_true, t_pred, m_true, m_pred;
  for (const auto& run : *holdout_) {
    const PerfPrediction p = est.predict(run.config, run.stats);
    t_true.push_back(run.report.epoch_time_s);
    t_pred.push_back(p.time_s);
    m_true.push_back(run.report.peak_memory_gb);
    m_pred.push_back(p.memory_gb);
  }
  // The fixture corpus is deliberately small (48 runs on one graph), so
  // expect directional generalization, not Table-2-grade precision.
  EXPECT_GT(ml::r2_score(t_true, t_pred), 0.3);
  EXPECT_GT(ml::r2_score(m_true, m_pred), 0.3);
}

/// Whether two predictions agree bit for bit in every field.
::testing::AssertionResult same_bits(const PerfPrediction& a,
                                     const PerfPrediction& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const std::pair<const char*, std::pair<double, double>> fields[] = {
      {"time_s", {a.time_s, b.time_s}},
      {"memory_gb", {a.memory_gb, b.memory_gb}},
      {"accuracy", {a.accuracy, b.accuracy}},
      {"batch_nodes", {a.batch_nodes, b.batch_nodes}},
      {"batch_edges", {a.batch_edges, b.batch_edges}},
      {"cache_hit_rate", {a.cache_hit_rate, b.cache_hit_rate}},
      {"overlap_ratio", {a.overlap_ratio, b.overlap_ratio}},
      {"overlap_ratio_analytic",
       {a.overlap_ratio_analytic, b.overlap_ratio_analytic}},
  };
  for (const auto& [name, v] : fields) {
    if (bits(v.first) != bits(v.second)) {
      return ::testing::AssertionFailure()
             << name << " " << v.first << " vs " << v.second;
    }
  }
  if (a.overlap_fitted != b.overlap_fitted) {
    return ::testing::AssertionFailure() << "overlap_fitted differs";
  }
  return ::testing::AssertionSuccess();
}

TEST_F(EstimatorFixture, BlockPredictMatchesSinglePredict) {
  PerfEstimator est(*hw_);
  est.fit(*corpus_);
  ASSERT_TRUE(est.overlap_model().is_fitted());  // covers the fitted arm
  const std::vector<runtime::TrainConfig> configs =
      dse::DesignSpace::full(dse::BaseSettings{}).enumerate();
  std::vector<PerfPrediction> block(configs.size());
  est.predict(configs, *stats_, block);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(same_bits(est.predict(configs[i], *stats_), block[i]))
        << "config " << i;
  }
  std::vector<PerfPrediction> short_out(1);
  EXPECT_THROW(est.predict(configs, *stats_, short_out), Error);
  // A fully pruned cache-axis subtree hands predict an empty span.
  EXPECT_NO_THROW(est.predict({}, *stats_, {}));
}

TEST_F(EstimatorFixture, PortableTierPredictsSameBits) {
  // Under kAuto on an AVX2 host the depth-2 heads and the depth-3
  // batch-size penalty score the block four rows at a time; kPortable
  // walks every tree.
  PerfEstimator est(*hw_);
  est.fit(*corpus_);
  const std::vector<runtime::TrainConfig> configs =
      dse::DesignSpace::full(dse::BaseSettings{}).enumerate();
  std::vector<PerfPrediction> fast(configs.size());
  std::vector<PerfPrediction> portable(configs.size());
  est.predict(configs, *stats_, fast);
  support::set_simd_tier(support::SimdTier::kPortable);
  est.predict(configs, *stats_, portable);
  support::set_simd_tier(support::SimdTier::kAuto);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(same_bits(fast[i], portable[i])) << configs[i].summary();
  }
}

TEST_F(EstimatorFixture, BatchNodesAreTheBatchSizeModelsPrediction) {
  // The batch-size model fits on the estimator's own hardware rows, so
  // the estimator's shared feature row is the row the model learned.
  PerfEstimator est(*hw_);
  est.fit(*corpus_);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const runtime::TrainConfig& c :
       dse::DesignSpace::full(dse::BaseSettings{}).enumerate()) {
    ASSERT_EQ(bits(est.predict(c, *stats_).batch_nodes),
              bits(est.batch_size_model().predict(c, *stats_, *hw_)))
        << c.summary();
  }
}

TEST_F(EstimatorFixture, OverlapRatiosMatchAnIndependentRecomputation) {
  // Eq. 4's analytic ratio and the fitted overlap ratio, recomputed over
  // the full space (pipelined and not) straight from the white-box
  // helpers, without the analytic shape the estimator shares between
  // them: the stage times at the floored batch shape, OverlapModel's
  // eleven columns, and its ridge refitted on the eligible corpus rows.
  PerfEstimator est(*hw_);
  est.fit(*corpus_);
  ASSERT_TRUE(est.overlap_model().is_fitted());
  const hw::CostModel cost(*hw_);
  const auto stage_times = [&](const runtime::TrainConfig& c,
                               const DatasetStats& s, double* b_nodes) {
    *b_nodes = std::max(analytic_batch_nodes(c, s), 1.0);
    const double b_edges = *b_nodes * std::max(s.profile.avg_degree, 1.0);
    return cost.iteration_times(analytic_iteration_volumes(
        c, s, *b_nodes, b_edges, analytic_cache_hit_prior(c, s)));
  };
  const auto ratio = [](double r) { return std::clamp(r, 0.25, 1.5); };
  const auto overlap_row = [&](const runtime::TrainConfig& c,
                               const DatasetStats& s, std::size_t depth,
                               std::size_t workers, double push, double pop,
                               double occupancy) {
    double b_nodes = 0.0;
    const hw::IterationTimes t = stage_times(c, s, &b_nodes);
    const double seq = std::max(t.sequential(), 1e-12);
    const double host = t.t_sample + t.t_transfer;
    const double device = t.t_replace + t.t_compute;
    const bool chained = c.bias_rate > 0.0;
    const std::size_t depth_floor = std::max<std::size_t>(depth, 1);
    const double w = chained ? 1.0
                             : static_cast<double>(std::clamp<std::size_t>(
                                   workers, 1, depth_floor));
    return std::vector<double>{
        ratio(std::max(host, device) / seq),
        host / seq,
        t.t_compute / seq,
        std::max({t.t_sample, t.t_transfer, t.t_compute + t.t_replace}) / seq,
        std::log(b_nodes),
        std::log2(static_cast<double>(depth_floor)),
        std::log2(std::max(w, 1.0)),
        chained ? 1.0 : 0.0,
        push,
        pop,
        occupancy};
  };
  std::vector<const ProfiledRun*> eligible;
  std::vector<double> push, pop, occupancy;
  double mean_push = 0.0, mean_pop = 0.0, mean_occupancy = 0.0;
  for (const ProfiledRun& run : *corpus_) {
    if (!OverlapModel::row_eligible(run)) continue;
    const runtime::PipelineReport& p = run.report.pipeline;
    const double batches = std::max(
        1.0, static_cast<double>(run.report.iterations_per_epoch));
    eligible.push_back(&run);
    push.push_back(static_cast<double>(p.push_stalls) / batches);
    pop.push_back(static_cast<double>(p.pop_stalls) / batches);
    occupancy.push_back(
        p.mean_queue_occupancy /
        static_cast<double>(std::max<std::size_t>(p.prefetch_depth, 1)));
    mean_push += push.back();
    mean_pop += pop.back();
    mean_occupancy += occupancy.back();
  }
  const double rows = static_cast<double>(eligible.size());
  mean_push /= rows;
  mean_pop /= rows;
  mean_occupancy /= rows;
  ml::Matrix x;
  std::vector<double> y;
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    const ProfiledRun& run = *eligible[i];
    x.push_back(overlap_row(run.config, run.stats,
                            run.report.pipeline.prefetch_depth,
                            run.report.pipeline.sampler_workers, push[i],
                            pop[i], occupancy[i]));
    y.push_back(std::log(OverlapModel::measured_ratio(run.report)));
  }
  ml::RidgeRegressor ridge(1e-2);
  ridge.fit(x, y);

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (runtime::TrainConfig c :
       dse::DesignSpace::full(dse::BaseSettings{}).enumerate()) {
    for (const bool pipelined : {true, false}) {
      c.pipeline_overlap = pipelined;
      double analytic = 1.0;
      double fitted = 1.0;
      if (pipelined) {
        double b_nodes = 0.0;
        const hw::IterationTimes t = stage_times(c, *stats_, &b_nodes);
        const double seq = t.sequential();
        analytic = seq > 0.0 ? t.overlapped() / seq : 1.0;
        fitted = ratio(std::exp(ridge.predict_one(overlap_row(
            c, *stats_, 4, 4, mean_push, mean_pop, mean_occupancy))));
      }
      const PerfPrediction p = est.predict(c, *stats_);
      ASSERT_EQ(bits(p.overlap_ratio_analytic), bits(analytic))
          << c.summary();
      ASSERT_EQ(bits(p.overlap_ratio), bits(fitted)) << c.summary();
      ASSERT_EQ(bits(est.predict_overlap_ratio(c, *stats_, {4, 4})),
                bits(fitted))
          << c.summary();
    }
  }
}

TEST_F(EstimatorFixture, MoreCachePredictsLessTimeMoreMemory) {
  PerfEstimator est(*hw_);
  est.fit(*corpus_);
  // Evaluate the property at real dataset scale, where transfers are a
  // first-order cost (on the tiny fixture graph structure dominates and
  // caching is correctly predicted to be near-neutral).
  const DatasetStats stats =
      compute_dataset_stats(graph::load_dataset("reddit2"));
  runtime::TrainConfig none = runtime::template_pyg();
  runtime::TrainConfig full = runtime::template_pagraph_full();
  const auto p_none = est.predict(none, stats);
  const auto p_full = est.predict(full, stats);
  EXPECT_LT(p_full.time_s, p_none.time_s);
  EXPECT_GT(p_full.memory_gb, p_none.memory_gb);
  EXPECT_GT(p_full.cache_hit_rate, p_none.cache_hit_rate);
}

TEST_F(EstimatorFixture, AnalyticMemoryComponentsPositiveAndOrdered) {
  PerfEstimator est(*hw_);
  est.fit(*corpus_);
  const auto cfg = runtime::template_pagraph_full();
  const double model_gb = est.analytic_model_memory_gb(cfg, *stats_);
  const double cache_gb = est.analytic_cache_memory_gb(cfg, *stats_);
  EXPECT_GT(model_gb, 0.0);
  EXPECT_GT(cache_gb, 0.0);
  runtime::TrainConfig low = runtime::template_pagraph_low();
  EXPECT_GT(cache_gb, est.analytic_cache_memory_gb(low, *stats_));
}

TEST_F(EstimatorFixture, WhiteBoxTimeRespondsToHitRate) {
  PerfEstimator est(*hw_);
  est.fit(*corpus_);
  const auto cfg = runtime::template_pagraph_full();
  const double t_low_hit =
      est.predict_time_analytic(cfg, *stats_, 2000, 10000, 0.1);
  const double t_high_hit =
      est.predict_time_analytic(cfg, *stats_, 2000, 10000, 0.9);
  EXPECT_LT(t_high_hit, t_low_hit);
}

}  // namespace
}  // namespace gnav::estimator
