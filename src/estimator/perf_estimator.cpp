#include "estimator/perf_estimator.hpp"

#include <algorithm>
#include <cmath>

#include "estimator/features.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace gnav::estimator {
namespace {

constexpr double kBytesPerGb = 1e9;
constexpr double kFrameworkOverheadGb = 0.55;  // matches runtime backend
constexpr double kOptimizerStateMultiplier = 4.0;

double iterations_per_epoch(const runtime::TrainConfig& c,
                            const DatasetStats& s) {
  return std::ceil(static_cast<double>(s.num_train_nodes) /
                   static_cast<double>(c.batch_size));
}

/// Eq. 10 Γ_runtime: miss staging buffer + activations/grads + attention
/// coefficients (GAT) + subgraph structure.
double analytic_runtime_gb(const runtime::TrainConfig& config,
                           const DatasetStats& stats, double batch_nodes,
                           double batch_edges, double hit_rate) {
  const double vol_scale =
      stats.real_feature_scale * stats.real_volume_scale;
  const double act_floats =
      2.0 * (static_cast<double>(stats.feature_dim) +
             static_cast<double>(config.num_layers - 1) *
                 static_cast<double>(config.hidden_dim) +
             static_cast<double>(stats.num_classes));
  const double miss_floats =
      static_cast<double>(stats.feature_dim) * (1.0 - hit_rate);
  const double edge_floats =
      (config.model == nn::ModelKind::kGat)
          ? 8.0 * 4.0 * static_cast<double>(config.num_layers)
          : 0.0;
  return ((miss_floats + act_floats) * batch_nodes * 4.0 * vol_scale +
          edge_floats * batch_edges * 4.0 * vol_scale +
          (8.0 * batch_edges + 8.0 * batch_nodes) *
              stats.real_volume_scale) /
         kBytesPerGb;
}

/// Analytic Eq. 4 wall ratio (overlapped/sequential per-iteration) at a
/// config's white-box shape: the fallback and ablation arm of the
/// overlap correction; exactly 1.0 for sync configs.
double analytic_overlap_ratio(const runtime::TrainConfig& config,
                              const AnalyticShape& analytic) {
  if (!config.pipeline_overlap) return 1.0;
  const double seq = analytic.times.sequential();
  return seq > 0.0 ? analytic.times.overlapped() / seq : 1.0;
}

/// Executor shape `predict` consults the overlap model with: the
/// executor's default prefetch depth and a matching worker fan-out. A
/// compile-time constant (never the environment or the machine's core
/// count) so predictions are bit-identical across hosts and thread
/// counts.
constexpr OverlapExecutorShape kCanonicalShape{/*prefetch_depth=*/4,
                                               /*sampler_workers=*/4};
}  // namespace

PerfEstimator::PerfEstimator(hw::HardwareProfile hw)
    : hw_(hw), cost_(hw_), overlap_model_(hw_) {}

double PerfEstimator::analytic_model_memory_gb(
    const runtime::TrainConfig& config, const DatasetStats& stats) const {
  const auto in0 = static_cast<double>(stats.feature_dim);
  const auto hid = static_cast<double>(config.hidden_dim);
  const auto out = static_cast<double>(stats.num_classes);
  double params = 0.0;
  for (std::size_t l = 0; l < config.num_layers; ++l) {
    const double in = (l == 0) ? in0 : hid;
    const double o = (l + 1 == config.num_layers) ? out : hid;
    switch (config.model) {
      case nn::ModelKind::kGcn:
        params += in * o + o;
        break;
      case nn::ModelKind::kSage:
        params += 2.0 * in * o + o;
        break;
      case nn::ModelKind::kGat:
        params += in * o + 3.0 * o;
        break;
    }
  }
  return params * 4.0 * kOptimizerStateMultiplier * stats.real_feature_scale /
         kBytesPerGb;
}

double PerfEstimator::analytic_cache_memory_gb(
    const runtime::TrainConfig& config, const DatasetStats& stats) const {
  const double capacity =
      config.cache_ratio * static_cast<double>(stats.profile.num_nodes);
  const double feat_bytes = static_cast<double>(stats.feature_dim) * 4.0;
  // Mirrors RuntimeBackend::cache_memory_gb: payload + per-row index.
  return capacity *
         (feat_bytes * stats.real_feature_scale +
          cache::kIndexBytesPerRow) *
         stats.real_scale_factor / kBytesPerGb;
}

double PerfEstimator::predict_time_analytic(
    const runtime::TrainConfig& config, const DatasetStats& stats,
    double batch_nodes, double batch_edges, double hit_rate,
    double work_per_node) const {
  // Eq. 5-8 volumes through the shared white-box helper (the overlap
  // model derives its stage-balance features from the same split).
  const hw::IterationTimes t =
      cost_.iteration_times(analytic_iteration_volumes(
          config, stats, batch_nodes, batch_edges, hit_rate, work_per_node));
  // Eq. 4's analytic max() stays the simulated-T skeleton by design: the
  // runtime's ground-truth epoch_time_s is simulated *with* Eq. 4, so
  // the analytic ratio is exact in that domain. The fitted overlap
  // correction targets the *measured executor wall* instead (see
  // predict_overlap_ratio / OverlapModel).
  const double per_iter =
      config.pipeline_overlap ? t.overlapped() : t.sequential();
  return iterations_per_epoch(config, stats) * per_iter *
         stats.real_scale_factor;
}

double PerfEstimator::predict_overlap_ratio(
    const runtime::TrainConfig& config, const DatasetStats& stats,
    const OverlapExecutorShape& shape) const {
  if (!config.pipeline_overlap) return 1.0;
  const AnalyticShape analytic = analytic_shape(config, stats, cost_);
  return overlap_model_.predict_ratio(
      config, analytic, shape, analytic_overlap_ratio(config, analytic));
}

void PerfEstimator::fit(const std::vector<ProfiledRun>& runs) {
  GNAV_CHECK(runs.size() >= 8, "estimator needs a reasonable corpus");

  // Scale boosting capacity to the corpus: the default 80 rounds of
  // depth-3 trees can memorize a small corpus outright, which makes the
  // fit chaotic (bit-level input changes flip early splits and swing
  // out-of-sample r2 by >0.5) and lets residual extrapolation override
  // white-box monotonicity far from the training distribution. Shallow,
  // short boosting keeps small-corpus residuals a smooth correction.
  {
    ml::BoostingParams params;
    if (runs.size() < 96) {
      params.num_rounds = 40;
      params.learning_rate = 0.1;
      params.tree.max_depth = 2;
      params.tree.min_samples_leaf = 4;
      params.tree.min_samples_split = 8;
    }
    hit_model_ = ml::GradientBoostingRegressor(params);
    density_model_ = ml::GradientBoostingRegressor(params);
    work_model_ = ml::GradientBoostingRegressor(params);
    time_residual_ = ml::GradientBoostingRegressor(params);
    mem_residual_ = ml::GradientBoostingRegressor(params);
    acc_model_ = ml::GradientBoostingRegressor(params);
  }

  // Stage 1: intermediate quantity models. The overlap correction trains
  // only on rows that genuinely ran the async executor (OverlapModel
  // rejects sync rows, whose measured walls describe a serial loop); it
  // simply stays unfitted — analytic Eq. 4 fallback — when none exist.
  batch_model_.fit(runs, hw_);
  overlap_model_.fit(runs);
  {
    ml::Matrix x;
    std::vector<double> y_hit;
    std::vector<double> y_density;
    std::vector<double> y_work;
    for (const ProfiledRun& run : runs) {
      x.push_back(extract_features(run.config, run.stats, hw_));
      y_hit.push_back(run.report.cache_hit_rate);
      const double nodes = std::max(run.report.avg_batch_nodes, 1.0);
      y_density.push_back(
          std::log(std::max(run.report.avg_batch_edges, 1.0) / nodes));
      // Recover per-node sampling work from the simulated phase time.
      const double work_total =
          run.report.epoch_phases.sample_s / run.stats.real_scale_factor /
          run.stats.real_volume_scale * hw_.host.sample_throughput_per_s;
      const double iters = std::max(
          1.0, static_cast<double>(run.report.iterations_per_epoch));
      y_work.push_back(std::log(
          std::max(work_total / iters / nodes, 1e-3)));
    }
    hit_model_.fit(x, y_hit);
    density_model_.fit(x, y_density);
    work_model_.fit(x, y_work);
  }

  // Stage 2: residuals of the white-box formulas, evaluated through the
  // same prediction path used at inference time (stacked generalization).
  {
    ml::Matrix x;
    std::vector<double> y_time;
    std::vector<double> y_mem;
    std::vector<double> y_acc;
    for (const ProfiledRun& run : runs) {
      const auto f = extract_features(run.config, run.stats, hw_);
      const double b_nodes =
          batch_model_.predict(run.config, run.stats, hw_);
      const double b_edges =
          b_nodes * std::exp(density_model_.predict_one(f));
      const double hit =
          std::clamp(hit_model_.predict_one(f), 0.0, 1.0);
      const double work =
          std::exp(work_model_.predict_one(f));
      const double t_white = predict_time_analytic(
          run.config, run.stats, b_nodes, b_edges, hit, work);
      const double mem_white =
          kFrameworkOverheadGb +
          analytic_model_memory_gb(run.config, run.stats) +
          analytic_cache_memory_gb(run.config, run.stats) +
          analytic_runtime_gb(run.config, run.stats, b_nodes, b_edges, hit);
      x.push_back(f);
      y_time.push_back(std::log(
          std::max(run.report.epoch_time_s, 1e-9) /
          std::max(t_white, 1e-9)));
      y_mem.push_back(std::log(
          std::max(run.report.peak_memory_gb, 1e-9) /
          std::max(mem_white, 1e-9)));
      y_acc.push_back(run.report.test_accuracy);
    }
    time_residual_.fit(x, y_time);
    mem_residual_.fit(x, y_mem);
    acc_model_.fit(x, y_acc);
  }
  fitted_ = true;
  log_info("perf estimator fitted on ", runs.size(), " profiled runs");
}

PerfPrediction PerfEstimator::predict(const runtime::TrainConfig& config,
                                      const DatasetStats& stats) const {
  PerfPrediction p;
  predict({&config, 1}, stats, {&p, 1});
  return p;
}

void PerfEstimator::predict(std::span<const runtime::TrainConfig> configs,
                            const DatasetStats& stats,
                            std::span<PerfPrediction> out) const {
  GNAV_CHECK(fitted_, "predict before fit");
  GNAV_CHECK(configs.size() == out.size(),
             "config/prediction count mismatch");
  const std::size_t n = configs.size();
  std::vector<AnalyticShape> shapes;
  shapes.reserve(n);
  // One feature-major block: feature f of config i at features[f * n + i].
  std::vector<double> features(kFeatureCount * n);
  for (std::size_t i = 0; i < n; ++i) {
    shapes.push_back(analytic_shape(configs[i], stats, cost_));
    write_features(configs[i], stats, hw_, shapes.back(),
                   features.data() + i, n);
  }
  // One column of n learned outputs per ensemble.
  std::vector<double> learned(7 * n);
  const auto column = [&](std::size_t k) {
    return std::span<double>(learned).subspan(k * n, n);
  };
  const std::span<double> batch_nodes = column(0);
  const std::span<double> log_density = column(1);
  const std::span<double> hit = column(2);
  const std::span<double> log_work = column(3);
  const std::span<double> log_t_ratio = column(4);
  const std::span<double> log_m_ratio = column(5);
  const std::span<double> acc = column(6);
  batch_model_.predict_rows(configs, stats, shapes, features, n,
                            batch_nodes);
  density_model_.predict_columns(features, n, log_density);
  hit_model_.predict_columns(features, n, hit);
  work_model_.predict_columns(features, n, log_work);
  time_residual_.predict_columns(features, n, log_t_ratio);
  mem_residual_.predict_columns(features, n, log_m_ratio);
  acc_model_.predict_columns(features, n, acc);

  for (std::size_t i = 0; i < n; ++i) {
    const runtime::TrainConfig& config = configs[i];
    PerfPrediction p;
    p.batch_nodes = batch_nodes[i];
    p.batch_edges = p.batch_nodes * std::exp(log_density[i]);
    p.cache_hit_rate = std::clamp(hit[i], 0.0, 1.0);

    const double work = std::exp(log_work[i]);
    const double t_white = predict_time_analytic(
        config, stats, p.batch_nodes, p.batch_edges, p.cache_hit_rate, work);
    const double t_ratio = std::clamp(std::exp(log_t_ratio[i]), 0.25, 4.0);
    p.time_s = t_white * t_ratio;

    const double mem_white =
        kFrameworkOverheadGb + analytic_model_memory_gb(config, stats) +
        analytic_cache_memory_gb(config, stats) +
        analytic_runtime_gb(config, stats, p.batch_nodes, p.batch_edges,
                            p.cache_hit_rate);
    const double m_ratio = std::clamp(std::exp(log_m_ratio[i]), 0.5, 2.0);
    p.memory_gb = mem_white * m_ratio;

    p.accuracy = std::clamp(acc[i], 0.0, 1.0);

    // Executor-overlap consultation: for pipelined configs the fitted
    // correction replaces the bare Eq. 4 max() as the predicted
    // wall/serial ratio of the async executor (analytic fallback when no
    // measured rows trained it; exactly 1.0 for sync configs).
    p.overlap_ratio_analytic = analytic_overlap_ratio(config, shapes[i]);
    p.overlap_fitted =
        config.pipeline_overlap && overlap_model_.is_fitted();
    p.overlap_ratio =
        config.pipeline_overlap
            ? overlap_model_.predict_ratio(config, shapes[i], kCanonicalShape,
                                           p.overlap_ratio_analytic)
            : 1.0;
    out[i] = p;
  }
}

}  // namespace gnav::estimator
