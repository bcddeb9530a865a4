// Gray-box performance estimator (paper Sec. 3.3, Eq. 4-11).
//
// White-box skeleton: Eq. 4's pipelined epoch time over analytic phase
// volumes, Eq. 9/10's memory decomposition — evaluated with the trained
// hardware cost model. Black-box members: gradient-boosted trees for the
// quantities theory cannot pin down (batch overlap penalty, cache hit
// rate, subgraph density, sampling work per node, residual corrections,
// and the Eq. 11 accuracy delta, which the paper concedes "is still more
// like a black box"). The f_overlapping correction is likewise learned:
// an OverlapModel fitted from the async executor's measured stage walls
// replaces Eq. 4's bare max() for executor-wall predictions, with a
// graceful analytic fallback when the corpus holds no measured rows.
//
// The estimator is hardware-profile-specific, like the paper's (it is
// trained from profiles gathered on the platform it predicts for).
#pragma once

#include <span>
#include <vector>

#include "estimator/batch_size_estimator.hpp"
#include "estimator/overlap_model.hpp"
#include "estimator/profile_collector.hpp"
#include "hw/cost_model.hpp"
#include "ml/gradient_boosting.hpp"

namespace gnav::estimator {

struct PerfPrediction {
  double time_s = 0.0;      // T  (epoch seconds, original scale)
  double memory_gb = 0.0;   // Γ
  double accuracy = 0.0;    // Acc (short-horizon test accuracy)
  // Intermediate white-box quantities (exposed for tests/diagnostics).
  double batch_nodes = 0.0;
  double batch_edges = 0.0;
  double cache_hit_rate = 0.0;
  /// Executor-overlap correction for pipelined configs: the predicted
  /// measured-wall / serial-stage-work ratio of the async epoch
  /// executor. Fitted from measured executor walls when the corpus
  /// carried async rows (`overlap_fitted`), Eq. 4's analytic ratio
  /// otherwise; exactly 1.0 for sync (pipeline_overlap=false) configs.
  double overlap_ratio = 1.0;
  /// Eq. 4's analytic ratio for the same config (the ablation arm).
  double overlap_ratio_analytic = 1.0;
  bool overlap_fitted = false;
};

class PerfEstimator {
 public:
  explicit PerfEstimator(hw::HardwareProfile hw);

  /// Fits all learned components on a profiled-run corpus (typically the
  /// leave-one-dataset-out corpus + power-law augmentation).
  void fit(const std::vector<ProfiledRun>& runs);

  /// Predicts Perf{T, Γ, Acc} for `config` on `stats`' dataset: the
  /// one-element call of the span predict below.
  PerfPrediction predict(const runtime::TrainConfig& config,
                         const DatasetStats& stats) const;

  /// out[i] = predict(configs[i], stats) for a block of candidates, bit
  /// for bit: one analytic shape per config and one feature-major block
  /// of their feature rows (write_features), read by all seven boosted
  /// ensembles (the batch-size penalty and the estimator's six heads),
  /// each evaluated over the whole block at once, then each row's
  /// white-box tail, whose Eq. 4 ratio and overlap features read the
  /// same shape. An empty span is legal. Pure: disjoint blocks may run
  /// concurrently.
  void predict(std::span<const runtime::TrainConfig> configs,
               const DatasetStats& stats,
               std::span<PerfPrediction> out) const;

  bool is_fitted() const { return fitted_; }
  const GrayBoxBatchSizeEstimator& batch_size_model() const {
    return batch_model_;
  }
  /// The learned f_overlapping correction (unfitted when the corpus had
  /// no async-executor rows — consumers then see the Eq. 4 fallback).
  const OverlapModel& overlap_model() const { return overlap_model_; }

  /// Predicted wall/serial ratio of the async executor for `config`
  /// under the given executor shape — the fitted replacement for Eq. 4's
  /// bare max(), falling back to the analytic ratio when unfitted or
  /// when the config disables pipelining. Pure and serial: bit-identical
  /// at any thread count.
  double predict_overlap_ratio(const runtime::TrainConfig& config,
                               const DatasetStats& stats,
                               const OverlapExecutorShape& shape) const;

  /// Predicted wall-clock seconds of the async executor given the serial
  /// stage seconds measured by a cheap sync run of the same config.
  double predict_pipelined_wall_s(const runtime::TrainConfig& config,
                                  const DatasetStats& stats,
                                  const OverlapExecutorShape& shape,
                                  double serial_stage_s) const {
    return serial_stage_s * predict_overlap_ratio(config, stats, shape);
  }

  /// Analytic Eq. 9/10 components (no learning involved).
  double analytic_model_memory_gb(const runtime::TrainConfig& config,
                                  const DatasetStats& stats) const;
  double analytic_cache_memory_gb(const runtime::TrainConfig& config,
                                  const DatasetStats& stats) const;

  /// White-box-only T prediction (no learned residual) — the ablation arm.
  /// `work_per_node` < 0 selects the neutral analytic sampling-work
  /// multiplier; the full gray-box path passes the learned value.
  double predict_time_analytic(const runtime::TrainConfig& config,
                               const DatasetStats& stats, double batch_nodes,
                               double batch_edges, double hit_rate,
                               double work_per_node = -1.0) const;

 private:
  hw::HardwareProfile hw_;
  hw::CostModel cost_;
  GrayBoxBatchSizeEstimator batch_model_;
  OverlapModel overlap_model_;
  ml::GradientBoostingRegressor hit_model_;
  ml::GradientBoostingRegressor density_model_;   // log(edges per node)
  ml::GradientBoostingRegressor work_model_;      // log(sampling work per node)
  ml::GradientBoostingRegressor time_residual_;   // log(T_meas / T_white)
  ml::GradientBoostingRegressor mem_residual_;    // log(Γ_meas / Γ_white)
  ml::GradientBoostingRegressor acc_model_;       // Eq. 11 black-box
  bool fitted_ = false;
};

}  // namespace gnav::estimator
