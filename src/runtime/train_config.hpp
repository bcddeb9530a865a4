// TrainConfig — one point in GNNavigator's design space. Every field is a
// "reconfigurable setting" from Fig. 3 (blue dash-line rectangles); the
// DSE explorer mutates these, and the guideline handed to users is this
// struct serialized as `key = value;` text.
#pragma once

#include <string>
#include <vector>

#include "cache/device_cache.hpp"
#include "nn/model.hpp"
#include "sampling/sampler.hpp"
#include "support/config_map.hpp"

namespace gnav::runtime {

struct TrainConfig {
  /// Human-readable tag ("pyg", "pagraph-full", "dse-1423", ...).
  std::string name = "custom";

  // --- Category 1: sampling strategies --------------------------------
  sampling::SamplerKind sampler = sampling::SamplerKind::kNodeWise;
  /// Fanout per hop (node/layer-wise) or walk length (SAINT: size of list).
  std::vector<int> hop_list = {10, 10};
  /// Target-vertex count |B_0| per iteration.
  std::size_t batch_size = 1024;
  /// Locality bias rate θ_bias in [0,1]; > 0 prefers device-cached
  /// vertices during neighbor selection (2PGraph-style).
  double bias_rate = 0.0;
  /// SAINT node/edge budget as multiple of |B_0|.
  double saint_budget_multiplier = 8.0;

  // --- Category 2: transmission strategies ----------------------------
  /// Cache size as a fraction r of |V| (feature rows resident on device).
  double cache_ratio = 0.0;
  cache::CachePolicy cache_policy = cache::CachePolicy::kNone;
  /// INT8 feature compression on the host-device link (EXACT-style
  /// activation/feature compression): 4x fewer transfer bytes, slight
  /// quantization noise on the training features.
  bool compress_features = false;

  // --- Category 3: model design ---------------------------------------
  nn::ModelKind model = nn::ModelKind::kSage;
  std::size_t hidden_dim = 64;
  std::size_t num_layers = 2;
  float dropout = 0.3f;

  // --- Category 4: computation ----------------------------------------
  /// Degree-descending vertex reordering (the paper's "Reorder" knob).
  /// No graph is permuted: it is modeled as a 0.85 discount on host
  /// sampling work (runtime/backend.cpp, estimator/features.cpp).
  bool reorder = false;
  /// Host/device pipelining (Eq. 4's max() overlap). Disabling it models
  /// a strictly sequential runtime — kept as an ablation toggle.
  bool pipeline_overlap = true;
  float learning_rate = 0.01f;

  /// Throws gnav::Error when fields are inconsistent (empty hop list,
  /// cache policy/ratio mismatch, bias without a cache to bias toward...).
  void validate() const;

  /// Serialization to/from the guideline `key = value;` format.
  ConfigMap to_config_map() const;
  static TrainConfig from_config_map(const ConfigMap& cm);

  /// Compact one-line summary for logs and bench tables.
  std::string summary() const;

  bool operator==(const TrainConfig& other) const;
};

}  // namespace gnav::runtime
