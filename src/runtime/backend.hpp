// RuntimeBackend — the reconfigurable training runtime of Fig. 3. Given a
// Dataset, a HardwareProfile and a TrainConfig, it executes Algo. 1
// (sample -> cache lookup -> transfer -> cache update -> compute) and
// reports the measured performance Perf{T, Γ, Acc}:
//
//   T   — simulated epoch time from the hardware cost model, with Eq. 4's
//         host/device pipeline overlap, extrapolated to the original
//         dataset scale (real_scale_factor);
//   Γ   — analytic device memory (Eq. 9: model + cache + runtime), also at
//         original scale;
//   Acc — REAL accuracy: the GNN is genuinely trained on CPU tensors and
//         evaluated on the held-out split.
#pragma once

#include <cstdint>
#include <vector>

#include <string>

#include "compute/backend.hpp"
#include "graph/dataset.hpp"
#include "hw/cost_model.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/profiler.hpp"
#include "runtime/train_config.hpp"

namespace gnav::support {
class ThreadPool;
}

namespace gnav::runtime {

/// Execution profile of the epoch executor, totaled over the run. The
/// modeled_* pair is simulated (cost model, Eq. 4, dataset-scale seconds)
/// and fully deterministic; everything else is REAL wall-clock and stall
/// accounting, so it varies run to run like `wall_clock_s` does — it is
/// exempt from the sync/async bit-identity contract.
struct PipelineReport {
  std::string executor = "sync";  // which executor ran ("sync" | "async")
  std::size_t prefetch_depth = 0;
  std::size_t sampler_workers = 0;

  /// Backpressure: pushes that waited on a full inter-stage queue.
  std::uint64_t push_stalls = 0;
  /// Starvation: pops that waited on an empty inter-stage queue.
  std::uint64_t pop_stalls = 0;
  /// Mean pre-push backlog of the compute-facing prefetch queue
  /// (0..prefetch_depth-1; 0 = compute always kept up, the ROADMAP's
  /// shrink-the-depth signal).
  double mean_queue_occupancy = 0.0;

  /// Measured per-stage busy seconds, summed over every call the epoch
  /// executor timed (in either shape).
  double sample_wall_s = 0.0;
  double transfer_wall_s = 0.0;
  double compute_wall_s = 0.0;
  /// Measured wall-clock of the training loops (excludes evaluation).
  double measured_wall_s = 0.0;

  /// Eq. 4 prediction for the same iterations (simulated seconds at
  /// original dataset scale, like epoch_times_s).
  double modeled_overlapped_s = 0.0;
  double modeled_sequential_s = 0.0;

  double measured_sequential_s() const {
    return sample_wall_s + transfer_wall_s + compute_wall_s;
  }
  /// Measured stage-overlap speedup (1.0 = fully serial).
  double measured_speedup() const {
    return measured_wall_s > 0.0 ? measured_sequential_s() / measured_wall_s
                                 : 1.0;
  }
  /// Eq. 4's predicted overlap speedup for comparison with the above.
  double predicted_speedup() const {
    return modeled_overlapped_s > 0.0
               ? modeled_sequential_s / modeled_overlapped_s
               : 1.0;
  }
  /// Fraction of the hideable (non-bottleneck) stage time actually
  /// hidden by overlap: 0 = serial, 1 = wall equals the bottleneck stage.
  double overlap_efficiency() const;
};

struct TrainReport {
  /// Mean simulated epoch time (seconds, original-dataset scale) — the T
  /// the paper's Table 1 reports.
  double epoch_time_s = 0.0;
  std::vector<double> epoch_times_s;

  /// Peak device memory Γ in GB (original-dataset scale) and its Eq. 9
  /// decomposition.
  double peak_memory_gb = 0.0;
  double mem_model_gb = 0.0;
  double mem_cache_gb = 0.0;
  double mem_runtime_gb = 0.0;

  /// Real (not simulated) accuracies.
  double final_train_accuracy = 0.0;
  double val_accuracy = 0.0;
  double test_accuracy = 0.0;
  std::vector<double> epoch_train_accuracy;
  std::vector<double> epoch_val_accuracy;
  std::vector<double> epoch_loss;

  /// Diagnostics.
  /// Compute backend that executed this run (RunOptions::backend_id as
  /// resolved). Row provenance only: the corpus CSV records it, and no
  /// estimator feature or DSE rule reads it.
  std::string backend_id;
  /// Peak bytes outstanding in the backend's device allocator when the
  /// run finished (cache slab included). The allocator is shared by all
  /// runs on the same backend, so this is a process-level diagnostic.
  std::size_t device_peak_bytes = 0;
  PhaseBreakdown epoch_phases;  // per-epoch average
  PipelineReport pipeline;      // executor profile (run totals)
  double cache_hit_rate = 0.0;
  double avg_batch_nodes = 0.0;
  double avg_batch_edges = 0.0;
  std::vector<double> per_batch_nodes;  // every mini-batch |V_i| (Fig. 5 data)
  std::size_t model_parameters = 0;
  std::size_t iterations_per_epoch = 0;
  double wall_clock_s = 0.0;  // actual CPU time spent by the simulator
};

struct RunOptions {
  int epochs = 4;
  std::uint64_t seed = 1;
  /// When false, skips per-epoch full-graph validation passes (cheaper
  /// profiling runs for the estimator's training data).
  bool evaluate_every_epoch = true;
  /// Collect per-batch |V_i| samples (Fig. 5 ground truth).
  bool record_batch_sizes = false;
  /// Ignored by run(): the epoch executor owns its threads (see
  /// `pipeline`), and nested kernel work follows the calling thread's
  /// pool membership. Kept for source compatibility with callers that
  /// still set it.
  support::ThreadPool* pool = nullptr;
  /// Compute backend executing every forward/backward in this run (see
  /// compute/backend.hpp; all built-in CPU backends are bit-identical, so
  /// for them this is purely a throughput knob). The run pins this id on
  /// its own thread AND inside every async stage closure; neither the
  /// caller's BackendScope nor any other global state is consulted.
  std::string backend_id = compute::kBlockedBackendId;
  /// Epoch executor shape (sync inline | async staged) plus prefetch
  /// depth and sampler worker count. The async shape produces a
  /// bit-identical TrainReport (batch stream, cache hit/miss sequence,
  /// losses, accuracies, memory, modeled times) at any depth and worker
  /// count — only wall-clock observables change. Depth and workers are
  /// ignored inline (reported as 0 and 1).
  PipelineConfig pipeline;
};

class RuntimeBackend {
 public:
  /// The dataset must outlive the backend.
  RuntimeBackend(const graph::Dataset& dataset, hw::HardwareProfile profile);

  /// Executes training under `config` and returns the measured report.
  TrainReport run(const TrainConfig& config, const RunOptions& options) const;

  const graph::Dataset& dataset() const { return *dataset_; }
  const hw::HardwareProfile& profile() const { return cost_.profile(); }

  /// Eq. 9/10 static components for a given config (used by the estimator
  /// without running training).
  double model_memory_gb(const TrainConfig& config) const;
  double cache_memory_gb(const TrainConfig& config) const;

 private:
  const graph::Dataset* dataset_;
  hw::CostModel cost_;
};

}  // namespace gnav::runtime
