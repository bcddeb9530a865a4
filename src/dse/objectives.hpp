// Explore targets and runtime constraints (paper Fig. 4 inputs).
//
// An application states which of {time, memory, accuracy} it prioritizes
// (explore targets with weights) and any hard runtime constraints
// (device memory budget, epoch-time deadline, accuracy floor). The
// decision maker scalarizes over the Pareto front with these weights.
#pragma once

#include <string>

namespace gnav::dse {

/// Priority weights over Perf{T, Γ, Acc}. Larger = more emphasized.
struct ExploreTargets {
  double time_weight = 1.0;
  double memory_weight = 1.0;
  double accuracy_weight = 1.0;
  std::string name = "balance";
};

/// Table-1 presets: Bal balances all three; Ex-<XY> emphasizes two
/// metrics and tolerates a marginal sacrifice on the third.
ExploreTargets targets_balance();
ExploreTargets targets_extreme_time_memory();    // Ex-TM
ExploreTargets targets_extreme_memory_accuracy(); // Ex-MA
ExploreTargets targets_extreme_time_accuracy();   // Ex-TA

/// Hard feasibility limits; non-positive/unset fields are inactive.
struct RuntimeConstraints {
  double max_epoch_time_s = 0.0;    // 0 = unconstrained
  double max_memory_gb = 0.0;       // device memory budget
  double min_accuracy = 0.0;        // accuracy floor
};

inline ExploreTargets targets_balance() {
  return {1.0, 1.0, 1.0, "balance"};
}
inline ExploreTargets targets_extreme_time_memory() {
  return {2.2, 2.2, 0.35, "ex-tm"};
}
inline ExploreTargets targets_extreme_memory_accuracy() {
  return {0.35, 2.2, 2.2, "ex-ma"};
}
inline ExploreTargets targets_extreme_time_accuracy() {
  return {2.2, 0.35, 2.2, "ex-ta"};
}

}  // namespace gnav::dse
