// Featurization of (candidate configuration, dataset statistics, hardware
// profile) for the black-box components of the gray-box estimator. The
// vector deliberately includes the *analytic* quantities (Eq. 12 batch
// size, cache coverage prior, FLOP estimate) alongside raw knobs — that
// injection of white-box structure is what makes the learned residuals
// easy to fit from few profiled runs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "estimator/dataset_stats.hpp"
#include "hw/cost_model.hpp"
#include "hw/platform.hpp"
#include "runtime/train_config.hpp"

namespace gnav::estimator {

/// Width of a feature row.
inline constexpr std::size_t kFeatureCount = 31;

/// Ordered feature names (for documentation and debugging).
const std::vector<std::string>& feature_names();

/// The white-box shape of one config on one dataset: Eq. 12's analytic
/// batch nodes, the cache-hit prior, and Eq. 5-8's stage times at that
/// shape (nodes floored at 1, edges at nodes times the average degree
/// floored at 1, hits at the prior). Computed once per candidate row; the
/// feature row, the batch-size model's analytic core, Eq. 4's analytic
/// ratio and the overlap model's stage-balance features all read it.
struct AnalyticShape {
  double batch_nodes = 0.0;  // analytic_batch_nodes, not floored
  double hit_prior = 0.0;    // analytic_cache_hit_prior
  hw::IterationTimes times;
};

AnalyticShape analytic_shape(const runtime::TrainConfig& config,
                             const DatasetStats& stats,
                             const hw::CostModel& cost);

/// Featurizes (config, dataset, hardware). The compute backend is not an
/// input: every built-in backend gives the same bits, and T and Γ are
/// simulated, so it cannot move any target.
std::vector<double> extract_features(const runtime::TrainConfig& config,
                                     const DatasetStats& stats,
                                     const hw::HardwareProfile& hw);
/// The same row, given the config's analytic shape on `hw`.
std::vector<double> extract_features(const runtime::TrainConfig& config,
                                     const DatasetStats& stats,
                                     const hw::HardwareProfile& hw,
                                     const AnalyticShape& analytic);
/// Writes that row's feature f to out[f * stride], f < kFeatureCount:
/// stride 1 writes a plain row; row i of a feature-major block of stride
/// n is written through out = block + i.
void write_features(const runtime::TrainConfig& config,
                    const DatasetStats& stats, const hw::HardwareProfile& hw,
                    const AnalyticShape& analytic, double* out,
                    std::size_t stride);

/// Analytic white-box helpers shared by the estimator internals.
double analytic_batch_nodes(const runtime::TrainConfig& config,
                            const DatasetStats& stats);
double analytic_cache_hit_prior(const runtime::TrainConfig& config,
                                const DatasetStats& stats);
double analytic_model_flops(const runtime::TrainConfig& config,
                            const DatasetStats& stats, double batch_nodes,
                            double batch_edges);

/// Eq. 5-8 white-box per-iteration phase volumes at the given batch
/// shape. `work_per_node` < 0 selects the neutral analytic sampling-work
/// multiplier; the full gray-box path passes the learned value. Shared
/// by the estimator's time skeleton and the overlap model's
/// stage-balance features, so both sides see the same phase split.
hw::IterationVolumes analytic_iteration_volumes(
    const runtime::TrainConfig& config, const DatasetStats& stats,
    double batch_nodes, double batch_edges, double hit_rate,
    double work_per_node = -1.0);

}  // namespace gnav::estimator
