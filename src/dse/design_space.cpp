#include "dse/design_space.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace gnav::dse {

DesignSpace::DesignSpace(BaseSettings base, bool reduced) : base_(base) {
  if (reduced) {
    batch_sizes_ = {512, 1024};
    samplers_ = {sampling::SamplerKind::kNodeWise};
    fanouts_ = {5, 10, 25};
    walk_lengths_ = {4};
    cache_ratios_ = {0.0, 0.10, 0.25, 0.50, 0.25};
    policies_ = {cache::CachePolicy::kNone, cache::CachePolicy::kStatic,
                 cache::CachePolicy::kStatic, cache::CachePolicy::kStatic,
                 cache::CachePolicy::kLru};
    bias_rates_ = {0.0, 0.7};
    hidden_dims_ = {64};
    reorder_ = {0};
  } else {
    batch_sizes_ = {256, 512, 1024, 2048};
    samplers_ = {sampling::SamplerKind::kNodeWise,
                 sampling::SamplerKind::kLayerWise,
                 sampling::SamplerKind::kSaintWalk,
                 sampling::SamplerKind::kCluster};
    fanouts_ = {5, 10, 15, 25};
    walk_lengths_ = {2, 4, 6};
    cache_ratios_ = {0.0, 0.05, 0.10, 0.25, 0.50, 0.25, 0.25};
    policies_ = {cache::CachePolicy::kNone,   cache::CachePolicy::kStatic,
                 cache::CachePolicy::kStatic, cache::CachePolicy::kStatic,
                 cache::CachePolicy::kStatic, cache::CachePolicy::kLru,
                 cache::CachePolicy::kWeightedDegree};
    bias_rates_ = {0.0, 0.3, 0.7};
    hidden_dims_ = {32, 64, 128};
    reorder_ = {0, 1};
    compress_ = {0, 1};
  }
  if (compress_.empty()) compress_ = {0};
  GNAV_CHECK(cache_ratios_.size() == policies_.size(),
             "cache axis tables out of sync");
  axes_ = {
      {"batch_size", batch_sizes_.size()},
      {"sampler", samplers_.size()},
      {"fanout", std::max(fanouts_.size(), walk_lengths_.size())},
      {"cache", cache_ratios_.size()},
      {"bias_rate", bias_rates_.size()},
      {"hidden_dim", hidden_dims_.size()},
      {"reorder", reorder_.size()},
      {"compress", compress_.size()},
  };
}

DesignSpace DesignSpace::full(const BaseSettings& base) {
  return DesignSpace(base, /*reduced=*/false);
}

DesignSpace DesignSpace::reduced(const BaseSettings& base) {
  return DesignSpace(base, /*reduced=*/true);
}

std::size_t DesignSpace::raw_size() const {
  std::size_t total = 1;
  for (const Axis& a : axes_) total *= a.cardinality;
  return total;
}

bool DesignSpace::materialize(const std::vector<std::size_t>& levels,
                              runtime::TrainConfig* out) const {
  GNAV_CHECK(levels.size() == axes_.size(), "level vector width mismatch");
  for (std::size_t i = 0; i < levels.size(); ++i) {
    GNAV_CHECK(levels[i] < axes_[i].cardinality, "axis level out of range");
  }
  runtime::TrainConfig c;
  c.model = base_.model;
  c.num_layers = base_.num_layers;
  c.dropout = base_.dropout;
  c.learning_rate = base_.learning_rate;

  c.batch_size = batch_sizes_[levels[0]];
  c.sampler = samplers_[levels[1]];
  const bool saint = c.sampler == sampling::SamplerKind::kSaintWalk ||
                     c.sampler == sampling::SamplerKind::kSaintNode ||
                     c.sampler == sampling::SamplerKind::kSaintEdge;
  if (c.sampler == sampling::SamplerKind::kCluster) {
    // Cluster sampling has no fanout axis; only level 0 is meaningful.
    if (levels[2] != 0) return false;
    c.hop_list = {-1};
  } else if (saint) {
    // The fanout axis is shared; levels beyond the walk-length table are
    // invalid (rather than aliased) so DFS and enumerate() agree exactly.
    if (levels[2] >= walk_lengths_.size()) return false;
    const int len = walk_lengths_[levels[2]];
    c.hop_list = std::vector<int>(static_cast<std::size_t>(len), 1);
  } else {
    if (levels[2] >= fanouts_.size()) return false;
    c.hop_list = std::vector<int>(base_.num_layers, fanouts_[levels[2]]);
  }
  c.cache_ratio = cache_ratios_[levels[3]];
  c.cache_policy = policies_[levels[3]];
  c.bias_rate = bias_rates_[levels[4]];
  if (c.bias_rate > 0.0 &&
      c.cache_policy == cache::CachePolicy::kNone) {
    return false;  // nothing to bias toward
  }
  c.hidden_dim = hidden_dims_[levels[5]];
  c.reorder = reorder_[levels[6]] != 0;
  c.compress_features = compress_[levels[7]] != 0;
  c.name = "dse";
  c.validate();
  *out = std::move(c);
  return true;
}

std::vector<runtime::TrainConfig> DesignSpace::enumerate() const {
  // Every level table holds distinct entries (the cache axis pairs each
  // ratio with a distinct policy), so distinct valid assignments
  // materialize to distinct configs: nothing needs de-duplicating.
  std::vector<runtime::TrainConfig> out;
  std::vector<std::size_t> levels(axes_.size(), 0);
  while (true) {
    runtime::TrainConfig c;
    if (materialize(levels, &c)) out.push_back(std::move(c));
    // Odometer increment.
    std::size_t axis = axes_.size();
    while (axis > 0) {
      --axis;
      if (++levels[axis] < axes_[axis].cardinality) break;
      levels[axis] = 0;
      if (axis == 0) return out;
    }
  }
}

}  // namespace gnav::dse
