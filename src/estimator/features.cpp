#include "estimator/features.hpp"

#include <algorithm>
#include <cmath>

#include "sampling/batch_size_model.hpp"
#include "support/error.hpp"

namespace gnav::estimator {
namespace {
// Damping exponent of the Eq. 12 expansion product, fit once against
// profiled runs on the augmentation graphs (see DESIGN.md).
constexpr double kTau = 0.82;

bool dynamic_cache(const runtime::TrainConfig& c) {
  return c.cache_policy == cache::CachePolicy::kLru ||
         c.cache_policy == cache::CachePolicy::kFifo ||
         c.cache_policy == cache::CachePolicy::kWeightedDegree;
}
}  // namespace

const std::vector<std::string>& feature_names() {
  static const std::vector<std::string> names = {
      "log_batch_size",       "num_hops",
      "mean_fanout",          "log_expansion_bound",
      "log_analytic_batch",   "sampler_node_wise",
      "sampler_layer_wise",   "sampler_saint",
      "bias_rate",            "cache_ratio",
      "cache_dynamic",        "cache_hit_prior",
      "hidden_dim",           "num_layers",
      "sampler_cluster",      "model_gcn",
      "model_sage",           "model_gat",
      "reorder",              "compress_features",
      "pipeline_overlap",
      "log_num_nodes",        "log_num_edges",
      "avg_degree",           "degree_gini",
      "power_law_alpha",      "feature_dim",
      "log_train_nodes",      "link_bandwidth_gbps",
      "device_gflops",        "host_sample_mps",
  };
  return names;
}

double analytic_batch_nodes(const runtime::TrainConfig& config,
                            const DatasetStats& stats) {
  // SAINT samplers bound the batch by their explicit budget rather than
  // the hop expansion.
  const bool saint = config.sampler == sampling::SamplerKind::kSaintWalk ||
                     config.sampler == sampling::SamplerKind::kSaintNode ||
                     config.sampler == sampling::SamplerKind::kSaintEdge;
  if (config.sampler == sampling::SamplerKind::kCluster) {
    // Cluster batches merge a few parts of ~batch_size/4 vertices each;
    // the realized batch hovers around 1-2x the seed count.
    const double n = static_cast<double>(stats.profile.num_nodes);
    return std::min(n, 1.6 * static_cast<double>(config.batch_size));
  }
  if (saint) {
    double budget = static_cast<double>(config.batch_size);
    if (config.sampler == sampling::SamplerKind::kSaintWalk) {
      budget *= 1.0 + static_cast<double>(config.hop_list.size());
    } else {
      budget *= 1.0 + config.saint_budget_multiplier;
    }
    const double n = static_cast<double>(stats.profile.num_nodes);
    return std::min(n, n * (1.0 - std::exp(-budget / n)));
  }
  return sampling::analytic_batch_size(config.batch_size, config.hop_list,
                                       stats.profile, kTau);
}

double analytic_cache_hit_prior(const runtime::TrainConfig& config,
                                const DatasetStats& stats) {
  if (config.cache_policy == cache::CachePolicy::kNone ||
      config.cache_ratio <= 0.0) {
    return 0.0;
  }
  // Piecewise-linear interpolation of the degree-coverage curve measured
  // during dataset profiling; dynamic policies track the working set and
  // land near the static prior, biased sampling pushes hits *up*.
  const double r = config.cache_ratio;
  double prior = 0.0;
  if (r <= 0.10) {
    prior = stats.coverage_at_10 * (r / 0.10);
  } else if (r <= 0.25) {
    prior = stats.coverage_at_10 +
            (stats.coverage_at_25 - stats.coverage_at_10) *
                ((r - 0.10) / 0.15);
  } else if (r <= 0.50) {
    prior = stats.coverage_at_25 +
            (stats.coverage_at_50 - stats.coverage_at_25) *
                ((r - 0.25) / 0.25);
  } else {
    prior = stats.coverage_at_50 +
            (1.0 - stats.coverage_at_50) * ((r - 0.50) / 0.50);
  }
  // Cache-aware sampling concentrates the batch on resident vertices.
  prior = std::min(1.0, prior * (1.0 + 0.6 * config.bias_rate));
  return prior;
}

double analytic_model_flops(const runtime::TrainConfig& config,
                            const DatasetStats& stats, double batch_nodes,
                            double batch_edges) {
  const auto in0 = static_cast<double>(stats.feature_dim);
  const auto hid = static_cast<double>(config.hidden_dim);
  const auto out = static_cast<double>(stats.num_classes);
  double flops = 0.0;
  for (std::size_t l = 0; l < config.num_layers; ++l) {
    const double in = (l == 0) ? in0 : hid;
    const double o = (l + 1 == config.num_layers) ? out : hid;
    switch (config.model) {
      case nn::ModelKind::kGcn:
        flops += 2.0 * batch_nodes * in * o + 2.0 * batch_edges * o;
        break;
      case nn::ModelKind::kSage:
        flops += 4.0 * batch_nodes * in * o + 2.0 * batch_edges * in;
        break;
      case nn::ModelKind::kGat:
        // 8 cost-modeled attention heads (see GatConv::forward_flops).
        flops += 8.0 * (2.0 * batch_nodes * in * o +
                        8.0 * (batch_edges + batch_nodes) * o);
        break;
    }
  }
  return 3.0 * flops;  // forward + ~2x backward
}

hw::IterationVolumes analytic_iteration_volumes(
    const runtime::TrainConfig& config, const DatasetStats& stats,
    double batch_nodes, double batch_edges, double hit_rate,
    double work_per_node) {
  const double feat_bytes = static_cast<double>(stats.feature_dim) * 4.0;
  const double vol_scale = stats.real_feature_scale * stats.real_volume_scale;
  const double struct_scale = stats.real_volume_scale;

  hw::IterationVolumes v;
  // Eq. 7: sampling cost grows with the expansion |V_i| - |B_0|. The
  // per-node work multiplier is learned (work_model_); the pure white-box
  // arm falls back to a neutral fanout-scan estimate.
  if (work_per_node > 0.0) {
    v.sampling_work = batch_nodes * work_per_node * struct_scale;
  } else {
    v.sampling_work =
        (std::max(batch_nodes - static_cast<double>(config.batch_size),
                  0.0) *
             4.0 +
         batch_nodes) *
        struct_scale;
    if (config.reorder) v.sampling_work *= 0.85;
  }
  // Eq. 6: transfer = n_attr * |V_i| * (1 - hit) + structure; INT8
  // compression divides the feature payload by 4.
  const double wire_feat_bytes =
      config.compress_features ? feat_bytes / 4.0 : feat_bytes;
  v.transfer_bytes =
      batch_nodes * (1.0 - hit_rate) * wire_feat_bytes * vol_scale +
      (8.0 * batch_edges + 8.0 * batch_nodes) * struct_scale;
  // Eq. 5: replace only when a dynamic policy rewrites stale lines.
  v.replace_bytes = dynamic_cache(config)
                        ? batch_nodes * (1.0 - hit_rate) *
                              wire_feat_bytes * vol_scale
                        : 0.0;
  // Eq. 8: compute from the model's FLOP formula.
  v.compute_flops =
      analytic_model_flops(config, stats, batch_nodes, batch_edges) *
      vol_scale;
  return v;
}

AnalyticShape analytic_shape(const runtime::TrainConfig& config,
                             const DatasetStats& stats,
                             const hw::CostModel& cost) {
  AnalyticShape s;
  s.batch_nodes = analytic_batch_nodes(config, stats);
  s.hit_prior = analytic_cache_hit_prior(config, stats);
  const double b_nodes = std::max(s.batch_nodes, 1.0);
  const double b_edges = b_nodes * std::max(stats.profile.avg_degree, 1.0);
  s.times = cost.iteration_times(analytic_iteration_volumes(
      config, stats, b_nodes, b_edges, s.hit_prior));
  return s;
}

std::vector<double> extract_features(const runtime::TrainConfig& config,
                                     const DatasetStats& stats,
                                     const hw::HardwareProfile& hw) {
  return extract_features(config, stats, hw,
                          analytic_shape(config, stats, hw::CostModel(hw)));
}

std::vector<double> extract_features(const runtime::TrainConfig& config,
                                     const DatasetStats& stats,
                                     const hw::HardwareProfile& hw,
                                     const AnalyticShape& analytic) {
  std::vector<double> f(kFeatureCount);
  write_features(config, stats, hw, analytic, f.data(), 1);
  return f;
}

void write_features(const runtime::TrainConfig& config,
                    const DatasetStats& stats, const hw::HardwareProfile& hw,
                    const AnalyticShape& analytic, double* out,
                    std::size_t stride) {
  double fanout_sum = 0.0;
  for (int k : config.hop_list) {
    fanout_sum += (k == -1) ? stats.profile.avg_degree
                            : static_cast<double>(k);
  }
  const double mean_fanout =
      fanout_sum / static_cast<double>(config.hop_list.size());
  const double bound = sampling::tree_upper_bound(
      config.batch_size, config.hop_list, stats.profile.avg_degree);
  const bool saint = config.sampler == sampling::SamplerKind::kSaintWalk ||
                     config.sampler == sampling::SamplerKind::kSaintNode ||
                     config.sampler == sampling::SamplerKind::kSaintEdge;
  const bool dynamic_cache =
      config.cache_policy == cache::CachePolicy::kLru ||
      config.cache_policy == cache::CachePolicy::kFifo ||
      config.cache_policy == cache::CachePolicy::kWeightedDegree;

  std::size_t next = 0;
  const auto put = [&](double v) { out[next++ * stride] = v; };
  put(std::log(static_cast<double>(config.batch_size)));
  put(static_cast<double>(config.hop_list.size()));
  put(mean_fanout);
  put(std::log(std::max(bound, 1.0)));
  put(std::log(std::max(analytic.batch_nodes, 1.0)));
  put(config.sampler == sampling::SamplerKind::kNodeWise ? 1.0 : 0.0);
  put(config.sampler == sampling::SamplerKind::kLayerWise ? 1.0 : 0.0);
  put(saint ? 1.0 : 0.0);
  put(config.bias_rate);
  put(config.cache_ratio);
  put(dynamic_cache ? 1.0 : 0.0);
  put(analytic.hit_prior);
  put(static_cast<double>(config.hidden_dim));
  put(static_cast<double>(config.num_layers));
  put(config.sampler == sampling::SamplerKind::kCluster ? 1.0 : 0.0);
  put(config.model == nn::ModelKind::kGcn ? 1.0 : 0.0);
  put(config.model == nn::ModelKind::kSage ? 1.0 : 0.0);
  put(config.model == nn::ModelKind::kGat ? 1.0 : 0.0);
  put(config.reorder ? 1.0 : 0.0);
  put(config.compress_features ? 1.0 : 0.0);
  put(config.pipeline_overlap ? 1.0 : 0.0);
  put(std::log(static_cast<double>(
      std::max<graph::NodeId>(stats.profile.num_nodes, 2))));
  put(std::log(static_cast<double>(
      std::max<graph::EdgeId>(stats.profile.num_edges, 2))));
  put(stats.profile.avg_degree);
  put(stats.profile.degree_gini);
  put(stats.profile.power_law_alpha);
  put(static_cast<double>(stats.feature_dim));
  put(std::log(static_cast<double>(
      std::max<std::size_t>(stats.num_train_nodes, 2))));
  put(hw.link.bandwidth_gbps);
  put(hw.device.compute_gflops);
  put(hw.host.sample_throughput_per_s / 1e6);
  GNAV_CHECK(next == kFeatureCount, "feature count drifted from its names");
}

}  // namespace gnav::estimator
