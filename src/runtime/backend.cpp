#include "runtime/backend.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "nn/optim.hpp"
#include "sampling/batcher.hpp"
#include "sampling/sampler_factory.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "tensor/ops.hpp"

namespace gnav::runtime {
namespace {

constexpr double kBytesPerGb = 1e9;
/// Fixed device-side framework overhead (CUDA context, allocator reserve,
/// kernels) — present in every PyTorch-profiler measurement the paper
/// reports, so modeled as a constant floor.
constexpr double kFrameworkOverheadGb = 0.55;
/// Adam keeps value + grad + m + v per parameter.
constexpr double kOptimizerStateMultiplier = 4.0;
/// Backward ≈ 2x forward FLOPs (standard estimate).
constexpr double kBackwardFlopMultiplier = 2.0;
/// Degree-descending reordering improves host-side memory locality during
/// neighbor expansion; profiling GNN samplers typically shows 10-20%
/// faster expansion, modeled as a fixed work discount.
constexpr double kReorderSamplingDiscount = 0.85;

/// Bytes of CSR structure shipped with a mini-batch (indices + indptr).
double structure_bytes(const sampling::MiniBatch& mb) {
  return 8.0 * static_cast<double>(mb.num_edges()) +
         8.0 * static_cast<double>(mb.num_nodes());
}

/// Output of the transfer/cache stage: everything the compute stage needs
/// to run a train step without touching the cache, the profiler, or the
/// full-graph feature tensor.
struct PreparedBatch {
  sampling::MiniBatch mb;
  tensor::Tensor x;          // gathered (and possibly quantized) features
  std::vector<int> labels;   // per seed-local position
};

}  // namespace

double PipelineReport::overlap_efficiency() const {
  PipelineEpochStats s;
  s.sample_busy_s = sample_wall_s;
  s.transfer_busy_s = transfer_wall_s;
  s.compute_busy_s = compute_wall_s;
  s.wall_s = measured_wall_s;
  return s.overlap_efficiency();
}

RuntimeBackend::RuntimeBackend(const graph::Dataset& dataset,
                               hw::HardwareProfile profile)
    : dataset_(&dataset), cost_(std::move(profile)) {
  dataset.validate();
}

double RuntimeBackend::model_memory_gb(const TrainConfig& config) const {
  // Parameter count without instantiating tensors: per layer the dense
  // weights dominate; replicate GnnModel's layer shapes.
  const auto in0 = static_cast<double>(dataset_->feature_dim);
  const auto hid = static_cast<double>(config.hidden_dim);
  const auto out = static_cast<double>(dataset_->num_classes);
  double params = 0.0;
  for (std::size_t l = 0; l < config.num_layers; ++l) {
    const double in = (l == 0) ? in0 : hid;
    const double o = (l + 1 == config.num_layers) ? out : hid;
    const double dense = in * o + o;  // weight + bias
    switch (config.model) {
      case nn::ModelKind::kGcn:
        params += dense;
        break;
      case nn::ModelKind::kSage:
        params += 2.0 * in * o + o;
        break;
      case nn::ModelKind::kGat:
        params += dense + 2.0 * o;  // attention vectors
        break;
    }
  }
  return params * 4.0 * kOptimizerStateMultiplier *
         dataset_->real_feature_scale / kBytesPerGb;
}

double RuntimeBackend::cache_memory_gb(const TrainConfig& config) const {
  const double capacity =
      config.cache_ratio * static_cast<double>(dataset_->num_nodes());
  // Feature payload extrapolates by feature width; the per-row index
  // entry only by the row count.
  return capacity *
         (static_cast<double>(dataset_->feature_bytes_per_node()) *
              dataset_->real_feature_scale +
          cache::kIndexBytesPerRow) *
         dataset_->real_scale_factor / kBytesPerGb;
}

TrainReport RuntimeBackend::run(const TrainConfig& config,
                                const RunOptions& options) const {
  config.validate();
  GNAV_CHECK(options.epochs >= 1, "need at least one epoch");
  // gnav-lint(wall-clock): profiler wall — report.wall_clock_s only.
  const auto wall_start = std::chrono::steady_clock::now();

  // Every aggregation in this run (training steps and full-graph
  // evaluations alike) resolves to the requested compute backend. The
  // scope is thread-local, so concurrent jobs on pool workers cannot
  // interfere with each other's selection. Stage closures below
  // re-establish the scope because the async executor runs them on fresh
  // stage threads that inherit NO thread-local state — without it they
  // would fall through to cpu-blocked whatever backend the run asked for
  // (the multi-tenant isolation contract, see serve/job_scheduler.hpp
  // and compute/backend.hpp).
  const std::shared_ptr<const compute::ComputeBackend> run_backend =
      compute::BackendFactory::create(options.backend_id);
  const compute::BackendScope backend_scope(run_backend);

  // Telemetry (obs/): the run-level span nests every epoch/stage span
  // recorded on this thread, and the sampler counter is resolved once so
  // the per-batch hot path is a single gated atomic add. Neither half
  // consumes an Rng stream or any data-bearing state, so the report is
  // bit-identical with tracing/metrics on or off (pinned by
  // test_obs.cpp).
  GNAV_TRACE_SPAN("runtime", "run:" + config.name);
  obs::Counter& sampler_batches_metric =
      obs::MetricsRegistry::global().counter(
          "gnav_sampler_batches_total",
          {{"sampler", sampling::to_string(config.sampler)}},
          "Mini-batches built, by sampler kind");

  const graph::Dataset& ds = *dataset_;
  Rng rng(options.seed);
  Rng eval_rng(options.seed ^ 0xE7A1ULL);

  // --- Component instantiation from the configuration ------------------
  nn::ModelConfig mc;
  mc.kind = config.model;
  mc.in_dim = static_cast<std::size_t>(ds.feature_dim);
  mc.hidden_dim = config.hidden_dim;
  mc.out_dim = static_cast<std::size_t>(ds.num_classes);
  mc.num_layers = config.num_layers;
  mc.dropout = config.dropout;
  nn::GnnModel model(mc, rng);
  nn::Adam optimizer(model.parameters(), config.learning_rate);

  const auto cache_capacity = static_cast<std::size_t>(
      config.cache_ratio * static_cast<double>(ds.num_nodes()));
  cache::DeviceCache device_cache(config.cache_policy, cache_capacity,
                                  ds.graph);

  sampling::SamplerSettings ss;
  ss.kind = config.sampler;
  ss.hop_list = config.hop_list;
  ss.bias_rate = config.bias_rate;
  ss.saint_budget_multiplier = config.saint_budget_multiplier;
  // Cluster-GCN sizing: parts of ~batch_size/4 vertices, so a typical
  // batch merges a handful of clusters.
  ss.cluster_num_parts = static_cast<int>(std::max<std::size_t>(
      4, static_cast<std::size_t>(ds.num_nodes()) * 4 / config.batch_size));
  ss.cluster_max_per_batch = 8;
  const std::vector<char>* preference =
      config.bias_rate > 0.0 ? &device_cache.residency_bitmap() : nullptr;
  // The residency version lets cached weighted-draw structures (e.g. the
  // SAINT node alias table) rebuild only when the bitmap actually
  // changed — with a static cache policy that is never.
  const auto sampler = sampling::make_sampler(
      ss, preference,
      preference != nullptr
          ? std::function<std::uint64_t()>(
                [&device_cache] { return device_cache.residency_version(); })
          : nullptr);

  sampling::SeedBatcher batcher(ds.train_nodes, config.batch_size);

  // Full-graph feature tensor (host side; device receives per-batch rows).
  tensor::Tensor x_full(static_cast<std::size_t>(ds.num_nodes()),
                        static_cast<std::size_t>(ds.feature_dim));
  std::copy(ds.features.begin(), ds.features.end(), x_full.data());

  // Back the cache with real device memory from the run's backend and
  // seed statically preloaded rows. From here on, cached feature reads
  // come out of the backend-owned slab, not the host tensor.
  const std::size_t row_floats = static_cast<std::size_t>(ds.feature_dim);
  if (row_floats > 0) {
    device_cache.attach_storage(run_backend->allocator(), row_floats);
    if (device_cache.has_storage()) {
      // One lock for the whole preload sweep: resident_row is a
      // REQUIRES-annotated per-row accessor (see DeviceCache::mutex()).
      const support::MutexLock cache_lock(device_cache.mutex());
      for (graph::NodeId v = 0; v < ds.num_nodes(); ++v) {
        if (float* dst = device_cache.resident_row(v)) {
          std::memcpy(dst, x_full.row(static_cast<std::size_t>(v)),
                      row_floats * sizeof(float));
        }
      }
    }
  }

  // --- Static memory components (Eq. 9/10) ------------------------------
  TrainReport report;
  report.model_parameters = model.parameter_count();
  report.mem_model_gb = model_memory_gb(config);
  report.mem_cache_gb = cache_memory_gb(config);
  report.iterations_per_epoch = batcher.batches_per_epoch();

  const double feat_bytes =
      static_cast<double>(ds.feature_bytes_per_node());
  // Per-batch volumes extrapolate by feature width and by the original
  // dataset's larger per-iteration expansion; epoch time additionally by
  // the iteration-count ratio (see DESIGN.md "Substitutions").
  const double vol_scale = ds.real_feature_scale * ds.real_volume_scale;
  const double struct_scale = ds.real_volume_scale;
  const double time_scale = ds.real_scale_factor;

  Profiler profiler;
  const double sampling_discount =
      config.reorder ? kReorderSamplingDiscount : 1.0;

  // Cache-aware bias couples batch i's sampling to batch i-1's cache
  // update through the residency bitmap, so sampling and cache update
  // cannot parallelize against each other (the async shape chains them
  // onto one producer; the inline shape is serial anyway).
  const bool biased_sampling = preference != nullptr;

  // The epoch executor's shape (sync inline | async staged) comes from
  // RunOptions::pipeline; both produce bit-identical reports, and the
  // executor is the only clock of the measured stage walls.
  const PipelineConfig& pipe = options.pipeline;
  PipelineEpochStats run_measured;  // real wall-clock totals, all epochs
  const std::size_t num_batches = batcher.batches_per_epoch();
  // Full-graph logits of the latest evaluated epoch. The last epoch
  // always evaluates, so after the loop they are the final weights'
  // forward, which the test accuracy reads too.
  tensor::Tensor eval_logits;

  // --- Algo. 1 main loop ------------------------------------------------
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    char epoch_span_name[32];
    std::snprintf(epoch_span_name, sizeof epoch_span_name, "epoch-%d",
                  epoch);
    GNAV_TRACE_SPAN("pipeline", epoch_span_name);
    profiler.reset_epoch();
    double epoch_loss = 0.0;
    std::size_t correct = 0;
    std::size_t total = 0;

    // Seed of batch i this epoch: task_seed(epoch_seed, i) in every
    // executor shape, so bias is the only behavioral delta.
    const std::uint64_t epoch_seed = support::task_seed(
        options.seed ^ 0xB47C4E5EEDULL, static_cast<std::uint64_t>(epoch));
    const auto seed_batches = batcher.epoch_batches(rng);

    // Component 1: sampling. Thread-safe at any worker count — batch i
    // always draws from its own task_seed-derived stream.
    auto sample_batch = [&](std::size_t i) {
      // Pin this job's backend selection on whatever thread executes the
      // stage (async sampler workers are fresh threads with no ambient
      // scope; pool workers may carry another job's scope).
      const compute::BackendScope stage_scope(run_backend);
      GNAV_TRACE_SPAN("pipeline", "sample");
      Rng batch_rng(support::task_seed(epoch_seed, i));
      auto mb = sampler->sample(ds.graph, seed_batches[i], batch_rng);
      sampler_batches_metric.add(1);
      return mb;
    };

    // Component 2: transmission (cache lookup -> transfer misses) plus
    // feature staging. Runs in STRICT batch order — under the async
    // executor on the single transfer thread — so the cache hit/miss
    // sequence and every profiler accumulation are order-identical in
    // every executor shape (the passed sequence number enforces it).
    auto prepare_batch = [&](std::size_t i, sampling::MiniBatch&& mb) {
      // Same per-stage pin as sample_batch: the transfer stage runs on
      // its own thread under the async executor.
      const compute::BackendScope stage_scope(run_backend);
      GNAV_TRACE_SPAN("pipeline", "transfer");
      const cache::LookupResult lookup = device_cache.lookup_and_update(
          mb.nodes, static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(epoch) * num_batches +
                        static_cast<std::uint64_t>(i)));

      // INT8 link compression shrinks feature payloads 4x (plus a
      // negligible per-row scale/offset header, ignored).
      const double wire_feat_bytes =
          config.compress_features ? feat_bytes / 4.0 : feat_bytes;
      hw::IterationVolumes volumes;
      volumes.sampling_work =
          mb.sampling_work * sampling_discount * struct_scale;
      volumes.transfer_bytes =
          static_cast<double>(lookup.misses.size()) * wire_feat_bytes *
              vol_scale +
          structure_bytes(mb) * struct_scale;
      volumes.replace_bytes =
          static_cast<double>(lookup.replaced) * wire_feat_bytes *
          vol_scale;

      // Component 3: computation on device (executed for real on CPU).
      const double fwd_flops = model.forward_flops(
          mb.num_nodes(), mb.num_edges());
      volumes.compute_flops =
          fwd_flops * (1.0 + kBackwardFlopMultiplier) * vol_scale;

      const hw::IterationTimes times = cost_.iteration_times(volumes);
      profiler.record_iteration(times, config.pipeline_overlap);

      // Device memory high-water mark: model + cache + live batch. The
      // feature staging buffer holds only the *missed* rows — resident
      // rows are read in place from the device cache (this is exactly how
      // 2PGraph-style systems save runtime memory).
      const double runtime_bytes =
          (static_cast<double>(lookup.misses.size()) *
               static_cast<double>(ds.feature_dim) +
           model.activation_floats(mb.num_nodes()) +
           model.activation_edge_floats(mb.num_edges())) *
              4.0 * vol_scale +
          structure_bytes(mb) * struct_scale;
      profiler.record_device_memory(
          (report.mem_model_gb + report.mem_cache_gb) * kBytesPerGb +
          runtime_bytes);

      // Feature staging. Admitted rows are copied into their device slots
      // first (admission order — the last admit per slot owns it), then
      // the batch tensor is assembled reading resident rows from the
      // backend-owned slab and the rest from the host tensor. Cached rows
      // are verbatim copies of immutable host rows, so the assembled
      // tensor is byte-identical to a plain gather — residency changes
      // where bytes come from, never what they are. (A hit row evicted
      // later in the same batch's update phase simply falls back to the
      // host read.)
      tensor::Tensor x;
      if (device_cache.has_storage()) {
        // Batch-scoped lock: one acquisition covers the admitted-row
        // fills AND the per-row gather below, instead of a lock per
        // resident_row call. The transfer stage is the only mutator in
        // flight (strict batch order), so this serializes against stats
        // readers, not against itself.
        const support::MutexLock cache_lock(device_cache.mutex());
        for (graph::NodeId v : lookup.admitted) {
          // A later admission in the same batch can recycle this row's
          // slot — it is no longer resident, so there is nothing to fill.
          if (float* dst = device_cache.resident_row(v)) {
            std::memcpy(dst, x_full.row(static_cast<std::size_t>(v)),
                        row_floats * sizeof(float));
          }
        }
        x = tensor::Tensor(mb.nodes.size(), x_full.cols());
        for (std::size_t r = 0; r < mb.nodes.size(); ++r) {
          const auto v = static_cast<std::size_t>(mb.nodes[r]);
          const float* src = device_cache.resident_row(mb.nodes[r]);
          if (src == nullptr) src = x_full.row(v);
          std::memcpy(x.row(r), src, row_floats * sizeof(float));
        }
      } else {
        x = tensor::gather_rows(x_full, mb.nodes);
      }
      if (config.compress_features) {
        for (std::size_t row = 0; row < x.rows(); ++row) {
          float* r = x.row(row);
          float lo = r[0];
          float hi = r[0];
          for (std::size_t j = 1; j < x.cols(); ++j) {
            lo = std::min(lo, r[j]);
            hi = std::max(hi, r[j]);
          }
          const float span = std::max(hi - lo, 1e-12f);
          for (std::size_t j = 0; j < x.cols(); ++j) {
            const float q = std::round((r[j] - lo) / span * 255.0f);
            r[j] = lo + q / 255.0f * span;
          }
        }
      }
      std::vector<int> labels(mb.seed_local.size());
      for (std::size_t s = 0; s < mb.seed_local.size(); ++s) {
        labels[s] = ds.labels[static_cast<std::size_t>(
            mb.nodes[static_cast<std::size_t>(mb.seed_local[s])])];
      }
      return PreparedBatch{std::move(mb), std::move(x), std::move(labels)};
    };

    // Component 3: the real training step, always on this thread and in
    // strict batch order — the optimizer state and the dropout RNG
    // stream are serialized by batch index under both executors.
    auto consume_batch = [&](std::size_t, PreparedBatch&& p) {
      GNAV_TRACE_SPAN("pipeline", "compute");
      tensor::Tensor logits = model.forward(p.mb.subgraph, p.x, true, rng);
      const nn::LossResult loss =
          nn::softmax_cross_entropy(logits, p.mb.seed_local, p.labels);
      optimizer.zero_grad();
      model.backward(loss.grad_logits);
      optimizer.step();

      epoch_loss += loss.loss;
      correct += loss.correct;
      total += loss.total;
      report.avg_batch_nodes += static_cast<double>(p.mb.num_nodes());
      report.avg_batch_edges += static_cast<double>(p.mb.num_edges());
      if (options.record_batch_sizes) {
        report.per_batch_nodes.push_back(
            static_cast<double>(p.mb.num_nodes()));
      }
    };

    // Inline: this thread runs sample -> prepare -> consume per batch.
    // Async: sampler workers feed the ordered transfer stage through
    // bounded queues while this thread trains; biased sampling chains
    // sample+prepare on one producer (batch i's sampling must observe
    // batch i-1's cache update) but still overlaps compute.
    run_measured.accumulate(
        run_pipelined_epoch<sampling::MiniBatch, PreparedBatch>(
            seed_batches.size(), pipe, /*chain_sample_and_prepare=*/
            biased_sampling, sample_batch, prepare_batch, consume_batch));
    report.pipeline.modeled_overlapped_s +=
        profiler.epoch_modeled_overlapped_s() * time_scale;
    report.pipeline.modeled_sequential_s +=
        profiler.epoch_modeled_sequential_s() * time_scale;

    report.epoch_times_s.push_back(profiler.epoch_wall_s() * time_scale);
    report.epoch_loss.push_back(epoch_loss /
                                static_cast<double>(profiler.iterations()));
    report.epoch_train_accuracy.push_back(
        total == 0 ? 0.0
                   : static_cast<double>(correct) /
                         static_cast<double>(total));

    if (options.evaluate_every_epoch || epoch + 1 == options.epochs) {
      eval_logits =
          model.forward(ds.graph, x_full, /*training=*/false, eval_rng);
      std::vector<int> val_labels(ds.val_nodes.size());
      for (std::size_t i = 0; i < ds.val_nodes.size(); ++i) {
        val_labels[i] =
            ds.labels[static_cast<std::size_t>(ds.val_nodes[i])];
      }
      report.epoch_val_accuracy.push_back(
          nn::accuracy(eval_logits, ds.val_nodes, val_labels));
    }

    // Phase breakdown: keep the running average across epochs.
    const PhaseBreakdown ph = profiler.epoch_phases();
    report.epoch_phases.sample_s += ph.sample_s * time_scale;
    report.epoch_phases.transfer_s += ph.transfer_s * time_scale;
    report.epoch_phases.replace_s += ph.replace_s * time_scale;
    report.epoch_phases.compute_s += ph.compute_s * time_scale;
  }

  const auto n_epochs = static_cast<double>(options.epochs);
  report.epoch_phases.sample_s /= n_epochs;
  report.epoch_phases.transfer_s /= n_epochs;
  report.epoch_phases.replace_s /= n_epochs;
  report.epoch_phases.compute_s /= n_epochs;
  report.avg_batch_nodes /=
      n_epochs * static_cast<double>(report.iterations_per_epoch);
  report.avg_batch_edges /=
      n_epochs * static_cast<double>(report.iterations_per_epoch);

  double sum_t = 0.0;
  for (double t : report.epoch_times_s) sum_t += t;
  report.epoch_time_s = sum_t / n_epochs;

  report.mem_runtime_gb =
      profiler.peak_device_bytes() / kBytesPerGb - report.mem_model_gb -
      report.mem_cache_gb;
  report.peak_memory_gb =
      kFrameworkOverheadGb + profiler.peak_device_bytes() / kBytesPerGb;

  report.final_train_accuracy = report.epoch_train_accuracy.back();
  report.val_accuracy = report.epoch_val_accuracy.empty()
                            ? 0.0
                            : report.epoch_val_accuracy.back();
  report.cache_hit_rate = device_cache.stats().hit_rate();
  report.backend_id = run_backend->id();
  report.device_peak_bytes = run_backend->allocator().peak_bytes();

  // Executor profile: measured wall/stall totals plus the Eq. 4 modeled
  // pair accumulated per iteration above.
  report.pipeline.executor = to_string(pipe.mode);
  report.pipeline.prefetch_depth = run_measured.prefetch_depth;
  report.pipeline.sampler_workers = run_measured.sampler_workers;
  report.pipeline.push_stalls = run_measured.push_stalls;
  report.pipeline.pop_stalls = run_measured.pop_stalls;
  report.pipeline.mean_queue_occupancy = run_measured.mean_prepared_occupancy;
  report.pipeline.sample_wall_s = run_measured.sample_busy_s;
  report.pipeline.transfer_wall_s = run_measured.transfer_busy_s;
  report.pipeline.compute_wall_s = run_measured.compute_busy_s;
  report.pipeline.measured_wall_s = run_measured.wall_s;

  // Final test evaluation on the full graph: the last epoch's forward
  // (an eval forward draws nothing from eval_rng, so repeating it on the
  // same weights would give the same logits).
  {
    std::vector<int> test_labels(ds.test_nodes.size());
    for (std::size_t i = 0; i < ds.test_nodes.size(); ++i) {
      test_labels[i] =
          ds.labels[static_cast<std::size_t>(ds.test_nodes[i])];
    }
    report.test_accuracy =
        nn::accuracy(eval_logits, ds.test_nodes, test_labels);
  }

  report.wall_clock_s =
      // gnav-lint(wall-clock): profiler wall — closes wall_start above.
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  log_debug("run ", config.summary(), ": T=", report.epoch_time_s,
            "s, Mem=", report.peak_memory_gb,
            "GB, acc=", report.test_accuracy);
  return report;
}

}  // namespace gnav::runtime
