#include "runtime/pipeline.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace gnav::runtime {

std::string to_string(PipelineMode mode) {
  return mode == PipelineMode::kAsync ? "async" : "sync";
}

PipelineMode pipeline_mode_from_string(const std::string& s) {
  if (s == "sync") return PipelineMode::kSync;
  if (s == "async") return PipelineMode::kAsync;
  throw Error("unknown pipeline mode '" + s + "' (sync | async)");
}

double PipelineEpochStats::overlap_efficiency() const {
  const double seq = sequential_s();
  const double bottleneck = std::max(
      {sample_busy_s, transfer_busy_s, compute_busy_s});
  // `seq - bottleneck` is the hideable time; below it there is nothing a
  // pipeline could overlap (single stage, or empty epoch).
  const double hideable = seq - bottleneck;
  if (hideable <= 0.0) return 0.0;
  const double hidden = std::clamp(seq - wall_s, 0.0, hideable);
  return hidden / hideable;
}

void PipelineEpochStats::accumulate(const PipelineEpochStats& e) {
  batches += e.batches;
  sampler_workers = std::max(sampler_workers, e.sampler_workers);
  prefetch_depth = std::max(prefetch_depth, e.prefetch_depth);
  push_stalls += e.push_stalls;
  pop_stalls += e.pop_stalls;
  // Occupancy is a mean, not a count — weight epochs equally by keeping a
  // running average over however many accumulations happened.
  ++occupancy_epochs_;
  mean_prepared_occupancy +=
      (e.mean_prepared_occupancy - mean_prepared_occupancy) /
      static_cast<double>(occupancy_epochs_);
  sample_busy_s += e.sample_busy_s;
  transfer_busy_s += e.transfer_busy_s;
  compute_busy_s += e.compute_busy_s;
  wall_s += e.wall_s;
}

namespace detail {

TicketGate::TicketGate(std::size_t num_tickets, std::size_t depth)
    : num_tickets_(num_tickets), depth_(std::max<std::size_t>(1, depth)) {}

std::optional<std::size_t> TicketGate::acquire() {
  // Explicit wait loop instead of the predicate overload: the predicate
  // lambda cannot carry a REQUIRES annotation, so guarded-field reads
  // inside it would defeat the thread-safety analysis.
  support::UniqueLock lock(mutex_);
  while (!aborted_ && next_ < num_tickets_ && next_ >= released_ + depth_) {
    lock.wait(cv_);
  }
  if (aborted_ || next_ >= num_tickets_) return std::nullopt;
  return next_++;
}

void TicketGate::release() {
  {
    const support::MutexLock lock(mutex_);
    ++released_;
  }
  cv_.notify_all();
}

void TicketGate::abort() {
  {
    const support::MutexLock lock(mutex_);
    aborted_ = true;
  }
  cv_.notify_all();
}

void publish_epoch_metrics(const PipelineEpochStats& stats) {
  auto& reg = obs::MetricsRegistry::global();
  // Resolved once per process; the registry hands out stable references.
  static obs::Counter& epochs =
      reg.counter("gnav_pipeline_epochs_total", {},
                  "Epochs executed by the epoch executor");
  static obs::Counter& batches =
      reg.counter("gnav_pipeline_batches_total", {},
                  "Mini-batches moved through the epoch executor");
  static obs::Counter& push_stalls = reg.counter(
      "gnav_pipeline_push_stalls_total", {},
      "Queue-full waits across both hand-off queues (backpressure)");
  static obs::Counter& pop_stalls = reg.counter(
      "gnav_pipeline_pop_stalls_total", {},
      "Queue-empty waits across both hand-off queues (starvation)");
  static obs::Histogram& occupancy = reg.histogram(
      "gnav_pipeline_queue_occupancy", {},
      "Mean prepared-queue backlog per epoch (near depth-1 = "
      "compute-bound, 0 = sample/transfer-bound)",
      {0.5, 1.0, 2.0, 4.0, 8.0, 16.0});
  static obs::Gauge& wall = reg.gauge(
      "gnav_pipeline_epoch_wall_seconds", {},
      "Measured wall seconds of the most recent epoch");
  static obs::Gauge& efficiency = reg.gauge(
      "gnav_pipeline_overlap_efficiency", {},
      "Fraction of hideable stage time actually hidden, last epoch");
  // Process-cumulative busy seconds per stage (Prometheus counters are
  // integral here, so second-sums are gauges — see obs/metrics.hpp).
  static obs::Gauge& sample_busy =
      reg.gauge("gnav_stage_busy_seconds_total", {{"stage", "sample"}},
                "Cumulative measured stage wall seconds");
  static obs::Gauge& transfer_busy =
      reg.gauge("gnav_stage_busy_seconds_total", {{"stage", "transfer"}},
                "Cumulative measured stage wall seconds");
  static obs::Gauge& compute_busy =
      reg.gauge("gnav_stage_busy_seconds_total", {{"stage", "compute"}},
                "Cumulative measured stage wall seconds");
  sample_busy.add(stats.sample_busy_s);
  transfer_busy.add(stats.transfer_busy_s);
  compute_busy.add(stats.compute_busy_s);
  epochs.add(1);
  batches.add(stats.batches);
  push_stalls.add(stats.push_stalls);
  pop_stalls.add(stats.pop_stalls);
  occupancy.observe(stats.mean_prepared_occupancy);
  wall.set(stats.wall_s);
  efficiency.set(stats.overlap_efficiency());
}

}  // namespace detail
}  // namespace gnav::runtime
