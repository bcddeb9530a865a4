// The design space: the cross-product of the reconfigurable settings of
// Fig. 3, pre-filtered to *valid* combinations (a cache policy of none
// forces cache_ratio = 0 and bias_rate = 0, SAINT samplers use walk
// lengths instead of fanouts, ...).
//
// A `BaseSettings` pins the application-determined parameters (model
// kind, layer count, learning rate) that are inputs, not explorable knobs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runtime/train_config.hpp"

namespace gnav::dse {

/// Application-fixed parameters (from the user's model specification).
struct BaseSettings {
  nn::ModelKind model = nn::ModelKind::kSage;
  std::size_t num_layers = 2;
  float dropout = 0.3f;
  float learning_rate = 0.01f;
};

/// One explorable axis: a name plus its discrete levels, expressed as
/// mutations of a TrainConfig.
struct Axis {
  std::string name;
  /// Number of levels on this axis.
  std::size_t cardinality = 0;
};

class DesignSpace {
 public:
  /// Full space used by the guided explorer (hundreds to thousands of
  /// valid candidates).
  static DesignSpace full(const BaseSettings& base);

  /// Reduced space for exhaustive ground-truth sweeps (Fig. 6): small
  /// enough that every candidate can actually be trained.
  static DesignSpace reduced(const BaseSettings& base);

  const std::vector<Axis>& axes() const { return axes_; }

  /// Total assignments before validity filtering.
  std::size_t raw_size() const;

  /// All *valid* configurations, in DFS (odometer) order; each appears
  /// once.
  std::vector<runtime::TrainConfig> enumerate() const;

  /// Builds the (possibly invalid) config for a full axis assignment;
  /// returns false when the combination is inconsistent.
  bool materialize(const std::vector<std::size_t>& levels,
                   runtime::TrainConfig* out) const;

  const BaseSettings& base() const { return base_; }

 private:
  DesignSpace(BaseSettings base, bool reduced);

  BaseSettings base_;
  std::vector<Axis> axes_;
  // Axis level tables.
  std::vector<std::size_t> batch_sizes_;
  std::vector<sampling::SamplerKind> samplers_;
  std::vector<int> fanouts_;        // node/layer-wise per-hop fanout
  std::vector<int> walk_lengths_;   // SAINT
  std::vector<double> cache_ratios_;
  std::vector<cache::CachePolicy> policies_;
  std::vector<double> bias_rates_;
  std::vector<std::size_t> hidden_dims_;
  std::vector<int> reorder_;
  std::vector<int> compress_;
};

}  // namespace gnav::dse
