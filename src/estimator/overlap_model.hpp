// Learned overlap-efficiency correction — the fitted replacement for
// Eq. 4's analytic max().
//
// Eq. 4 assumes the host pipeline (sample + transfer) hides perfectly
// behind the device pipeline (replace + compute), so the epoch wall is
// the bottleneck side alone. The asynchronous epoch executor
// (runtime/pipeline.hpp) measures what actually happens: per-stage busy
// seconds and the realized wall. This model closes the paper's gray-box
// loop for f_overlapping: it regresses the *measured* overlap ratio
//
//   rho = measured_wall_s / (sample_wall_s + transfer_wall_s +
//                            compute_wall_s)
//
// (1.0 = fully serial, bottleneck/serial = perfect overlap) against
// white-box features — the analytic Eq. 4 ratio, the analytic stage
// balance, batch volume, and the executor shape (prefetch depth, sampler
// workers) — plus the executor's stall/occupancy counters, which are
// known for profiled rows and mean-imputed at predict time.
//
// Only corpus rows that actually ran the async executor can train the
// fit; sync rows (and rows with empty measured walls) are rejected by
// row_eligible so they can never poison the regression. When no eligible
// rows exist the model stays unfitted and every consumer falls back to
// the analytic Eq. 4 ratio.
//
// The regression is a ridge fit (normal equations, serial, no RNG), so
// fit and predict are bit-identical at any thread count.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "estimator/features.hpp"
#include "estimator/profile_collector.hpp"
#include "hw/cost_model.hpp"
#include "ml/ridge.hpp"

namespace gnav::estimator {

/// Executor shape an overlap prediction is made for (the async
/// executor's prefetch depth and sampler worker count).
struct OverlapExecutorShape {
  std::size_t prefetch_depth = 4;
  std::size_t sampler_workers = 4;
};

class OverlapModel {
 public:
  explicit OverlapModel(hw::HardwareProfile hw);

  /// True iff `run` can train the fit: the async executor ran and
  /// reported positive, finite measured walls. Sync rows carry
  /// measured-wall zeros or serial-loop walls and must never train the
  /// overlap correction.
  static bool row_eligible(const ProfiledRun& run);

  /// Measured wall / serial-stage-work ratio of a profiled row (the fit
  /// target); 1.0 when the row has no usable measurement.
  static double measured_ratio(const runtime::TrainReport& report);

  /// Eq. 4's implied wall ratio from the modeled overlapped/sequential
  /// pair the profiler recorded (the analytic ablation arm).
  static double analytic_ratio(const runtime::TrainReport& report);

  /// Fits on the eligible subset of `runs`. Fewer than `min_rows()`
  /// eligible rows leaves the model unfitted (analytic fallback).
  void fit(const std::vector<ProfiledRun>& runs);

  bool is_fitted() const { return fitted_; }
  std::size_t training_rows() const { return rows_; }
  static std::size_t min_rows() { return 4; }

  /// Predicted measured-wall / serial-stage-work ratio for `config`
  /// running under an async executor of the given shape. Falls back to
  /// `analytic_fallback` when unfitted. The result is clamped to
  /// [0.25, 1.5]: a pipeline cannot beat a 4x overlap of its serial
  /// work, and scheduling overhead rarely exceeds 1.5x.
  double predict_ratio(const runtime::TrainConfig& config,
                       const DatasetStats& stats,
                       const OverlapExecutorShape& shape,
                       double analytic_fallback) const;
  /// The same ratio, given the config's analytic shape on this model's
  /// hardware profile.
  double predict_ratio(const runtime::TrainConfig& config,
                       const AnalyticShape& analytic,
                       const OverlapExecutorShape& shape,
                       double analytic_fallback) const;

  /// Ordered names of the regression features (diagnostics).
  static const std::vector<std::string>& feature_names();

 private:
  static std::vector<double> features(const runtime::TrainConfig& config,
                                      const AnalyticShape& analytic,
                                      const OverlapExecutorShape& shape,
                                      double push_stall_rate,
                                      double pop_stall_rate,
                                      double occupancy_frac);

  hw::CostModel cost_;
  ml::RidgeRegressor ridge_;
  // Mean-imputation values for the measured-only columns (stall rates,
  // queue occupancy), learned at fit time and substituted at predict
  // time where no executor has run yet.
  double mean_push_stall_rate_ = 0.0;
  double mean_pop_stall_rate_ = 0.0;
  double mean_occupancy_frac_ = 0.0;
  std::size_t rows_ = 0;
  bool fitted_ = false;
};

}  // namespace gnav::estimator
