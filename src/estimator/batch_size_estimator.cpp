#include "estimator/batch_size_estimator.hpp"

#include <algorithm>
#include <cmath>

#include "estimator/features.hpp"
#include "support/error.hpp"

namespace gnav::estimator {
namespace {

/// Fig. 5 ground truth: the measured mean |V_i| of a profiled run.
double measured_batch_nodes(const ProfiledRun& run) {
  return run.report.avg_batch_nodes;
}

}  // namespace

void GrayBoxBatchSizeEstimator::fit(const std::vector<ProfiledRun>& runs,
                                    const hw::HardwareProfile& hw) {
  GNAV_CHECK(!runs.empty(), "no profiled runs");
  ml::Matrix x;
  std::vector<double> y;
  const hw::CostModel cost(hw);
  for (const ProfiledRun& run : runs) {
    const AnalyticShape shape = analytic_shape(run.config, run.stats, cost);
    const double analytic = shape.batch_nodes;
    const double measured = measured_batch_nodes(run);
    if (analytic <= 0.0 || measured <= 0.0) continue;
    x.push_back(extract_features(run.config, run.stats, hw, shape));
    // Learn the log-ratio: multiplicative penalties compose additively in
    // log space, which trees fit far more stably than raw ratios.
    y.push_back(std::log(measured / analytic));
  }
  GNAV_CHECK(!x.empty(), "no usable profiled runs");
  penalty_model_.fit(x, y);
  fitted_ = true;
}

double GrayBoxBatchSizeEstimator::predict(
    const runtime::TrainConfig& config, const DatasetStats& stats,
    const hw::HardwareProfile& hw) const {
  const AnalyticShape shape =
      analytic_shape(config, stats, hw::CostModel(hw));
  // One row is a feature-major block of stride 1.
  const std::vector<double> row = extract_features(config, stats, hw, shape);
  double out = 0.0;
  predict_rows({&config, 1}, stats, {&shape, 1}, row, 1, {&out, 1});
  return out;
}

void GrayBoxBatchSizeEstimator::predict_rows(
    std::span<const runtime::TrainConfig> configs, const DatasetStats& stats,
    std::span<const AnalyticShape> shapes, std::span<const double> features,
    std::size_t stride, std::span<double> out) const {
  GNAV_CHECK(fitted_, "predict before fit");
  GNAV_CHECK(configs.size() == out.size() && configs.size() == shapes.size(),
             "config/shape/output count mismatch");
  penalty_model_.predict_columns(features, stride, out);  // log penalties
  const double n = static_cast<double>(stats.profile.num_nodes);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const double analytic = shapes[i].batch_nodes;
    // The penalty corrects overlap mis-estimation; clamp to a sane band
    // so an extrapolating tree cannot produce absurd batch sizes.
    const double penalty = std::clamp(std::exp(out[i]), 0.1, 10.0);
    out[i] = std::clamp(analytic * penalty,
                        static_cast<double>(std::min<std::size_t>(
                            configs[i].batch_size,
                            static_cast<std::size_t>(std::max(n, 1.0)))),
                        n);
  }
}

void BlackBoxBatchSizeEstimator::fit(const std::vector<ProfiledRun>& runs,
                                     const hw::HardwareProfile& hw) {
  GNAV_CHECK(!runs.empty(), "no profiled runs");
  ml::Matrix x;
  std::vector<double> y;
  for (const ProfiledRun& run : runs) {
    x.push_back(extract_features(run.config, run.stats, hw));
    y.push_back(measured_batch_nodes(run));
  }
  model_.fit(x, y);
}

double BlackBoxBatchSizeEstimator::predict(
    const runtime::TrainConfig& config, const DatasetStats& stats,
    const hw::HardwareProfile& hw) const {
  GNAV_CHECK(model_.is_fitted(), "predict before fit");
  return std::max(
      model_.predict_one(extract_features(config, stats, hw)), 1.0);
}

}  // namespace gnav::estimator
