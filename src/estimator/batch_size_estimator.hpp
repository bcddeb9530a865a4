// Mini-batch size estimators (paper Eq. 12 + Fig. 5).
//
// Gray-box: E[|V_i|] = analytic_core * f_overlapping, where the analytic
// core is the damped expansion product with collision correction
// (sampling/batch_size_model) and f_overlapping is a learned multiplicative
// penalty (gradient-boosted trees on the config/dataset features).
//
// Black-box baseline: a single decision-tree regression straight from the
// features to |V_i| — the comparison arm in Fig. 5.
#pragma once

#include <span>
#include <vector>

#include "estimator/features.hpp"
#include "estimator/profile_collector.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gradient_boosting.hpp"

namespace gnav::estimator {

// Both models fit on the feature rows of `hw`, the hardware profile the
// caller predicts for: the rows they learn from are the rows they are
// asked about.
class GrayBoxBatchSizeEstimator {
 public:
  void fit(const std::vector<ProfiledRun>& runs,
           const hw::HardwareProfile& hw);
  double predict(const runtime::TrainConfig& config,
                 const DatasetStats& stats,
                 const hw::HardwareProfile& hw) const;
  /// out[i] = predict(configs[i], stats, hw), given each config's
  /// analytic shape on `hw` and a feature-major block of their feature
  /// rows: feature f of config i at features[f * stride + i], as
  /// write_features(configs[i], stats, hw, shapes[i], ...) writes it.
  void predict_rows(std::span<const runtime::TrainConfig> configs,
                    const DatasetStats& stats,
                    std::span<const AnalyticShape> shapes,
                    std::span<const double> features, std::size_t stride,
                    std::span<double> out) const;
  bool is_fitted() const { return fitted_; }

 private:
  ml::GradientBoostingRegressor penalty_model_;
  bool fitted_ = false;
};

class BlackBoxBatchSizeEstimator {
 public:
  void fit(const std::vector<ProfiledRun>& runs,
           const hw::HardwareProfile& hw);
  double predict(const runtime::TrainConfig& config,
                 const DatasetStats& stats,
                 const hw::HardwareProfile& hw) const;
  bool is_fitted() const { return model_.is_fitted(); }

 private:
  ml::DecisionTreeRegressor model_;
};

}  // namespace gnav::estimator
