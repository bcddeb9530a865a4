#include "runtime/profiler.hpp"

#include <algorithm>

namespace gnav::runtime {

void Profiler::record_iteration(const hw::IterationTimes& times,
                                bool pipelined) {
  epoch_phases_.sample_s += times.t_sample;
  epoch_phases_.transfer_s += times.t_transfer;
  epoch_phases_.replace_s += times.t_replace;
  epoch_phases_.compute_s += times.t_compute;
  epoch_modeled_overlapped_s_ += times.overlapped();
  epoch_modeled_sequential_s_ += times.sequential();
  epoch_wall_s_ += pipelined ? times.overlapped() : times.sequential();
  ++iterations_;
}

void Profiler::record_device_memory(double bytes) {
  peak_device_bytes_ = std::max(peak_device_bytes_, bytes);
}

void Profiler::reset_epoch() {
  epoch_phases_ = PhaseBreakdown{};
  epoch_wall_s_ = 0.0;
  epoch_modeled_overlapped_s_ = 0.0;
  epoch_modeled_sequential_s_ = 0.0;
  // peak_device_bytes_ persists: it is a run-level high-water mark.
  iterations_ = 0;
}

}  // namespace gnav::runtime
