// Phase-time and memory profiler — the reproduction's analogue of the
// PyTorch profiler the paper uses to measure T and Γ. It keeps only the
// SIMULATED half of the system's two clocks: seconds from the hardware
// cost model. Eq. 4's overlapped() and the no-pipelining sequential() are
// BOTH accumulated every iteration, so the predicted overlap benefit
// (sequential / overlapped) is always available, independent of which one
// counts toward epoch_wall_s().
//
// Measured wall-clock lives elsewhere: the epoch executor
// (runtime/pipeline.hpp) is the one stage clock, and its
// PipelineEpochStats is the one measured record. Comparing that measured
// speedup against the modeled ratio here is what lets the estimator's
// f_overlapping correction be fit from data instead of assumed.
//
// Memory is analytic bytes tracked against the device budget.
//
// Threading: every accumulator is written by the single ordered transfer
// stage (record_iteration, record_device_memory) and read by the calling
// thread between epochs — no lock.
#pragma once

#include <cstdint>

#include "hw/cost_model.hpp"

namespace gnav::runtime {

struct PhaseBreakdown {
  double sample_s = 0.0;
  double transfer_s = 0.0;
  double replace_s = 0.0;
  double compute_s = 0.0;

  double total() const {
    return sample_s + transfer_s + replace_s + compute_s;
  }
};

class Profiler {
 public:
  /// Accumulates one iteration's phase times; wall time uses Eq. 4's
  /// pipeline overlap unless `pipelined` is false (sequential runtime).
  /// Both the overlapped and the sequential sums are kept regardless.
  void record_iteration(const hw::IterationTimes& times,
                        bool pipelined = true);

  /// Tracks the device-memory high-water mark (bytes).
  void record_device_memory(double bytes);

  void reset_epoch();

  double epoch_wall_s() const { return epoch_wall_s_; }
  /// Eq. 4 epoch time with the max() overlap applied every iteration.
  double epoch_modeled_overlapped_s() const {
    return epoch_modeled_overlapped_s_;
  }
  /// Same iterations executed strictly sequentially (no overlap).
  double epoch_modeled_sequential_s() const {
    return epoch_modeled_sequential_s_;
  }
  PhaseBreakdown epoch_phases() const { return epoch_phases_; }
  double peak_device_bytes() const { return peak_device_bytes_; }
  std::uint64_t iterations() const { return iterations_; }

 private:
  PhaseBreakdown epoch_phases_;
  double epoch_wall_s_ = 0.0;
  double epoch_modeled_overlapped_s_ = 0.0;
  double epoch_modeled_sequential_s_ = 0.0;
  double peak_device_bytes_ = 0.0;
  std::uint64_t iterations_ = 0;
};

}  // namespace gnav::runtime
