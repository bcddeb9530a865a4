#include "estimator/overlap_model.hpp"

#include <algorithm>
#include <cmath>

#include "estimator/features.hpp"
#include "support/log.hpp"

namespace gnav::estimator {
namespace {

// Ratio clamp: wall below a quarter of the serial stage work would mean a
// >4x pipeline speedup out of three stages (impossible); above 1.5x the
// "measurement" is dominated by scheduling noise, not overlap.
constexpr double kMinRatio = 0.25;
constexpr double kMaxRatio = 1.5;

// Small ridge penalty: the feature columns are few and partially
// collinear (stage shares sum to ~1), and eligible corpora can be
// smaller than the feature count.
constexpr double kRidgeLambda = 1e-2;

double clamp_ratio(double r) { return std::clamp(r, kMinRatio, kMaxRatio); }

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

}  // namespace

OverlapModel::OverlapModel(hw::HardwareProfile hw)
    : cost_(std::move(hw)), ridge_(kRidgeLambda) {}

bool OverlapModel::row_eligible(const ProfiledRun& run) {
  const runtime::PipelineReport& p = run.report.pipeline;
  if (p.executor != "async") return false;
  if (!finite_nonneg(p.sample_wall_s) || !finite_nonneg(p.transfer_wall_s) ||
      !finite_nonneg(p.compute_wall_s)) {
    return false;
  }
  return std::isfinite(p.measured_wall_s) && p.measured_wall_s > 0.0 &&
         p.measured_sequential_s() > 0.0 && p.prefetch_depth >= 1;
}

double OverlapModel::measured_ratio(const runtime::TrainReport& report) {
  const runtime::PipelineReport& p = report.pipeline;
  const double serial = p.measured_sequential_s();
  if (!(serial > 0.0) || !(p.measured_wall_s > 0.0)) return 1.0;
  return clamp_ratio(p.measured_wall_s / serial);
}

double OverlapModel::analytic_ratio(const runtime::TrainReport& report) {
  const runtime::PipelineReport& p = report.pipeline;
  if (!(p.modeled_sequential_s > 0.0)) return 1.0;
  return clamp_ratio(p.modeled_overlapped_s / p.modeled_sequential_s);
}

const std::vector<std::string>& OverlapModel::feature_names() {
  static const std::vector<std::string> names = {
      "analytic_eq4_ratio",  "host_stage_share",
      "compute_stage_share", "bottleneck_share",
      "log_batch_nodes",     "log2_prefetch_depth",
      "log2_sampler_workers", "chained_producer",
      "push_stall_rate",     "pop_stall_rate",
      "occupancy_frac",
  };
  return names;
}

std::vector<double> OverlapModel::features(
    const runtime::TrainConfig& config, const AnalyticShape& analytic,
    const OverlapExecutorShape& shape, double push_stall_rate,
    double pop_stall_rate, double occupancy_frac) {
  // Stage balance from the white-box skeleton only (analytic batch shape
  // and cache-hit prior) — identical at fit and predict time, no
  // measured quantity leaks into the white-box columns.
  const hw::IterationTimes& t = analytic.times;
  const double seq = std::max(t.sequential(), 1e-12);
  const double host = t.t_sample + t.t_transfer;
  const double device = t.t_replace + t.t_compute;
  const double bottleneck =
      std::max({t.t_sample, t.t_transfer, t.t_compute + t.t_replace});

  // The chained producer (cache-aware bias couples sample(i) to
  // prepare(i-1)) collapses the sampler fan-out to one thread. Both
  // shape fields are floored at 1 (a sync report's defaults are 0, and
  // clamp with hi < lo would be UB).
  const bool chained = config.bias_rate > 0.0;
  const std::size_t depth_floor =
      std::max<std::size_t>(shape.prefetch_depth, 1);
  const double depth = static_cast<double>(depth_floor);
  const double workers =
      chained ? 1.0
              : static_cast<double>(std::clamp<std::size_t>(
                    shape.sampler_workers, 1, depth_floor));

  std::vector<double> f;
  f.reserve(feature_names().size());
  f.push_back(clamp_ratio(std::max(host, device) / seq));
  f.push_back(host / seq);
  f.push_back(t.t_compute / seq);
  f.push_back(bottleneck / seq);
  f.push_back(std::log(std::max(analytic.batch_nodes, 1.0)));
  f.push_back(std::log2(depth));
  f.push_back(std::log2(std::max(workers, 1.0)));
  f.push_back(chained ? 1.0 : 0.0);
  f.push_back(push_stall_rate);
  f.push_back(pop_stall_rate);
  f.push_back(occupancy_frac);
  return f;
}

void OverlapModel::fit(const std::vector<ProfiledRun>& runs) {
  fitted_ = false;
  rows_ = 0;
  std::vector<const ProfiledRun*> eligible;
  for (const ProfiledRun& run : runs) {
    if (row_eligible(run)) eligible.push_back(&run);
  }
  if (eligible.size() < min_rows()) {
    log_info("overlap model: only ", eligible.size(),
             " async-executor rows (need ", min_rows(),
             ") — keeping the analytic Eq.4 fallback");
    return;
  }

  // Imputation means for the measured-only columns come first so the
  // predict-time substitution matches the training distribution.
  mean_push_stall_rate_ = 0.0;
  mean_pop_stall_rate_ = 0.0;
  mean_occupancy_frac_ = 0.0;
  std::vector<double> push_rates, pop_rates, occ_fracs;
  for (const ProfiledRun* run : eligible) {
    const runtime::PipelineReport& p = run->report.pipeline;
    const double batches = std::max(
        1.0, static_cast<double>(run->report.iterations_per_epoch));
    push_rates.push_back(static_cast<double>(p.push_stalls) / batches);
    pop_rates.push_back(static_cast<double>(p.pop_stalls) / batches);
    occ_fracs.push_back(
        p.mean_queue_occupancy /
        static_cast<double>(std::max<std::size_t>(p.prefetch_depth, 1)));
    mean_push_stall_rate_ += push_rates.back();
    mean_pop_stall_rate_ += pop_rates.back();
    mean_occupancy_frac_ += occ_fracs.back();
  }
  const double n = static_cast<double>(eligible.size());
  mean_push_stall_rate_ /= n;
  mean_pop_stall_rate_ /= n;
  mean_occupancy_frac_ /= n;

  ml::Matrix x;
  std::vector<double> y;
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    const ProfiledRun& run = *eligible[i];
    const OverlapExecutorShape shape{run.report.pipeline.prefetch_depth,
                                     run.report.pipeline.sampler_workers};
    x.push_back(features(run.config,
                         analytic_shape(run.config, run.stats, cost_), shape,
                         push_rates[i], pop_rates[i], occ_fracs[i]));
    y.push_back(std::log(measured_ratio(run.report)));
  }
  ridge_.fit(x, y);
  rows_ = eligible.size();
  fitted_ = true;
  log_info("overlap model fitted on ", rows_, " async-executor rows");
}

double OverlapModel::predict_ratio(const runtime::TrainConfig& config,
                                   const DatasetStats& stats,
                                   const OverlapExecutorShape& shape,
                                   double analytic_fallback) const {
  if (!fitted_) return clamp_ratio(analytic_fallback);
  return predict_ratio(config, analytic_shape(config, stats, cost_), shape,
                       analytic_fallback);
}

double OverlapModel::predict_ratio(const runtime::TrainConfig& config,
                                   const AnalyticShape& analytic,
                                   const OverlapExecutorShape& shape,
                                   double analytic_fallback) const {
  if (!fitted_) return clamp_ratio(analytic_fallback);
  const auto f = features(config, analytic, shape, mean_push_stall_rate_,
                          mean_pop_stall_rate_, mean_occupancy_frac_);
  return clamp_ratio(std::exp(ridge_.predict_one(f)));
}

}  // namespace gnav::estimator
