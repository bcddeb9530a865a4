// The layer probe of a traced bench_e2e run. It measures each layer by
// calling that layer's public entry points directly, with fixed-size work
// on the workload's own dataset and primary training config:
//
//   graph      graph::load_dataset of the dataset;
//   runtime    one RuntimeBackend::run (2 epochs) under the workload's
//              executor: stage busy walls, stalls, queue occupancy;
//   sampling, cache, tensor, nn, compute
//              16 mini-batches replayed through make_sampler->sample,
//              DeviceCache::lookup_and_update, tensor::gather_rows,
//              GnnModel::forward, softmax_cross_entropy, backward,
//              Adam::step, ComputeBackend::spmm (every registered id) and
//              the three tensor::matmul variants at the batch's shapes;
//   estimator  collect_profiles + PerfEstimator::fit + serial predict;
//   dse        Explorer::explore + DecisionMaker::decide;
//   serve      a 4-job JobScheduler drain (ThreadPool::pending sampled
//              every millisecond for the support layer).
//
// Every workload runs the same probe, so each per-layer metric exists on
// every workload; a layer the workload's own operations never enter still
// gets a number, and the prediction for it is "no change". Each call is
// timed once, by Timers; the probe runs with tracing off, so the trace
// holds only the traced half of the measured loop.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "cache/device_cache.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optim.hpp"
#include "sampling/batcher.hpp"
#include "sampling/sampler_factory.hpp"
#include "tensor/ops.hpp"

#include "workloads.hpp"

namespace gnav::bench {

namespace probe_detail {

/// Sampler settings as RuntimeBackend::run derives them (a copy: the
/// runtime exposes no function for it). layer_probe checks the replayed
/// batches against a real run's, so the two cannot drift apart unseen.
inline sampling::SamplerSettings sampler_settings(
    const runtime::TrainConfig& config, const graph::Dataset& ds) {
  sampling::SamplerSettings ss;
  ss.kind = config.sampler;
  ss.hop_list = config.hop_list;
  ss.bias_rate = config.bias_rate;
  ss.saint_budget_multiplier = config.saint_budget_multiplier;
  ss.cluster_num_parts = static_cast<int>(std::max<std::size_t>(
      4, static_cast<std::size_t>(ds.num_nodes()) * 4 / config.batch_size));
  ss.cluster_max_per_batch = 8;
  return ss;
}

/// Accumulates milliseconds per named layer call.
class Timers {
 public:
  template <typename F>
  auto time(const std::string& name, F&& fn) {
    const auto t = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      ms_[name] += 1e3 * seconds_since(t);
    } else {
      auto out = fn();
      ms_[name] += 1e3 * seconds_since(t);
      return out;
    }
  }
  double ms(const std::string& name) const {
    const auto it = ms_.find(name);
    return it == ms_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> ms_;
};

}  // namespace probe_detail

/// Runs the probe and returns the per-layer metrics it measured.
inline std::map<std::string, Metric> layer_probe(Context& ctx,
                                                 const ProbeSpec& spec) {
  using probe_detail::Timers;
  std::map<std::string, Metric> out;
  const graph::Dataset& ds = *spec.dataset;
  const runtime::TrainConfig& config = spec.config;
  const std::uint64_t seed = ctx.derive(50);

  // --- graph: regenerate the dataset.
  auto t = Clock::now();
  const graph::Dataset again = graph::load_dataset(ds.name);
  out["graph.load_ms"] = {1e3 * seconds_since(t), "ms"};
  ctx.check(again.num_nodes() == ds.num_nodes(), "probe dataset reload");

  // --- runtime: one real run of the config under the workload executor.
  const runtime::RuntimeBackend backend(ds, ctx.hw);
  runtime::RunOptions ro = run_options(ctx, 2, seed, spec.pipeline);
  const runtime::TrainReport report = backend.run(config, ro);
  const runtime::PipelineReport& p = report.pipeline;
  const double run_batches =
      2.0 * static_cast<double>(report.iterations_per_epoch);
  const double loop_ms_per_batch = 1e3 * p.measured_wall_s / run_batches;
  out["runtime.sample_busy_ms_per_batch"] = {1e3 * p.sample_wall_s / run_batches, "ms"};
  out["runtime.transfer_busy_ms_per_batch"] = {1e3 * p.transfer_wall_s / run_batches, "ms"};
  out["runtime.compute_busy_ms_per_batch"] = {1e3 * p.compute_wall_s / run_batches, "ms"};
  out["runtime.loop_ms_per_batch"] = {loop_ms_per_batch, "ms"};
  out["runtime.overlap_speedup"] = {p.measured_speedup(), "ratio"};
  out["runtime.push_stalls_per_epoch"] = {static_cast<double>(p.push_stalls) / 2.0, "count"};
  out["runtime.pop_stalls_per_epoch"] = {static_cast<double>(p.pop_stalls) / 2.0, "count"};
  out["runtime.queue_occupancy"] = {p.mean_queue_occupancy, "count"};
  out["compute.device_peak_mb"] = {static_cast<double>(report.device_peak_bytes) / 1e6, "MB"};

  // --- sampling, cache, tensor, nn, compute: replay 16 batches.
  constexpr std::size_t kBatches = 16;
  constexpr double kBatchNodesTolerance = 0.05;
  Timers timers;
  Rng rng(seed);
  nn::ModelConfig mc;
  mc.kind = config.model;
  mc.in_dim = static_cast<std::size_t>(ds.feature_dim);
  mc.hidden_dim = config.hidden_dim;
  mc.out_dim = static_cast<std::size_t>(ds.num_classes);
  mc.num_layers = config.num_layers;
  mc.dropout = config.dropout;
  nn::GnnModel model(mc, rng);
  nn::Adam optimizer(model.parameters(), config.learning_rate);
  const auto blocked = compute::BackendFactory::create(compute::kBlockedBackendId);
  const compute::BackendScope scope(blocked);
  cache::DeviceCache device_cache(
      config.cache_policy,
      static_cast<std::size_t>(config.cache_ratio *
                               static_cast<double>(ds.num_nodes())),
      ds.graph);
  device_cache.attach_storage(blocked->allocator(),
                              static_cast<std::size_t>(ds.feature_dim));
  const std::vector<char>* preference =
      config.bias_rate > 0.0 ? &device_cache.residency_bitmap() : nullptr;
  const auto sampler = sampling::make_sampler(
      probe_detail::sampler_settings(config, ds), preference,
      preference != nullptr ? std::function<std::uint64_t()>([&device_cache] {
        return device_cache.residency_version();
      })
                            : nullptr);
  sampling::SeedBatcher batcher(ds.train_nodes, config.batch_size);
  tensor::Tensor x_full(static_cast<std::size_t>(ds.num_nodes()),
                        static_cast<std::size_t>(ds.feature_dim));
  std::copy(ds.features.begin(), ds.features.end(), x_full.data());
  const std::vector<std::string> backend_ids =
      compute::BackendFactory::registered_ids();

  double nodes = 0.0, edges = 0.0, admitted = 0.0, replaced = 0.0;
  double flops = 0.0;
  std::vector<std::vector<graph::NodeId>> seeds;
  for (std::size_t i = 0; i < kBatches; ++i) {
    if (i % batcher.batches_per_epoch() == 0) seeds = batcher.epoch_batches(rng);
    const auto& batch_seeds = seeds[i % batcher.batches_per_epoch()];
    Rng batch_rng(support::task_seed(seed, i));
    const sampling::MiniBatch mb = timers.time(
        "sample", [&] { return sampler->sample(ds.graph, batch_seeds, batch_rng); });
    const cache::LookupResult lookup =
        timers.time("lookup", [&] { return device_cache.lookup_and_update(mb.nodes); });
    const tensor::Tensor x =
        timers.time("gather", [&] { return tensor::gather_rows(x_full, mb.nodes); });
    std::vector<int> labels(mb.seed_local.size());
    for (std::size_t s = 0; s < labels.size(); ++s) {
      labels[s] = ds.labels[static_cast<std::size_t>(
          mb.nodes[static_cast<std::size_t>(mb.seed_local[s])])];
    }
    const tensor::Tensor logits = timers.time(
        "forward", [&] { return model.forward(mb.subgraph, x, true, rng); });
    const nn::LossResult loss = timers.time(
        "loss", [&] { return nn::softmax_cross_entropy(logits, mb.seed_local, labels); });
    timers.time("backward", [&] {
      optimizer.zero_grad();
      model.backward(loss.grad_logits);
    });
    timers.time("optim", [&] { optimizer.step(); });
    nodes += static_cast<double>(mb.num_nodes());
    edges += static_cast<double>(mb.num_edges());
    admitted += static_cast<double>(lookup.admitted.size());
    replaced += static_cast<double>(lookup.replaced);
    flops += model.forward_flops(mb.num_nodes(), mb.num_edges());

    // Kernels at this batch's shapes: mean aggregation over the input
    // features and over a hidden-width activation, per backend; the
    // three dense products a layer's forward and backward make.
    const std::size_t n = x.rows();
    const std::size_t in = x.cols();
    const std::size_t hid = config.hidden_dim;
    const tensor::Tensor h = tensor::Tensor::uniform(n, hid, -1.0f, 1.0f, rng);
    const tensor::Tensor w = tensor::Tensor::uniform(in, hid, -1.0f, 1.0f, rng);
    const std::vector<float> inv_deg = compute::inverse_degree_scales(mb.subgraph);
    for (const std::string& id : backend_ids) {
      const auto be = compute::BackendFactory::create(id);
      tensor::Tensor yx(n, in);
      tensor::Tensor yh(n, hid);
      timers.time("spmm." + id, [&] {
        be->spmm(mb.subgraph, x, yx, compute::mean_spmm_scales(inv_deg.data()), ctx.pool);
        be->spmm(mb.subgraph, h, yh, compute::mean_spmm_scales(inv_deg.data()), ctx.pool);
      });
    }
    timers.time("matmul", [&] {
      const tensor::Tensor y = tensor::matmul(x, w);
      const tensor::Tensor gw = tensor::matmul_at_b(x, h);
      const tensor::Tensor gx = tensor::matmul_a_bt(h, w);
      ctx.check(y.rows() == n && gw.rows() == in && gx.cols() == in,
                "probe matmul shapes");
    });
  }
  ctx.check(std::isfinite(nodes) && nodes > 0.0, "probe sampled no nodes");

  const double b = static_cast<double>(kBatches);
  // The replayed batches draw other seeds than the real run, so their mean
  // size differs a little (under 1% on every workload); a different
  // sampler setting changes it by far more.
  ctx.check(std::abs(nodes / b / report.avg_batch_nodes - 1.0) < kBatchNodesTolerance,
            "probe batches differ in size from RuntimeBackend::run's: the "
            "probe's sampler settings no longer match the runtime's");
  const auto per_batch = [&](const std::string& t) {
    return Metric{timers.ms(t) / b, "ms"};
  };
  out["sampling.sample_ms_per_batch"] = per_batch("sample");
  out["sampling.batch_nodes"] = {nodes / b, "count"};
  out["sampling.batch_edges"] = {edges / b, "count"};
  out["cache.lookup_ms_per_batch"] = per_batch("lookup");
  out["cache.hit_rate"] = {device_cache.stats().hit_rate(), "ratio"};
  out["cache.admitted_per_batch"] = {admitted / b, "count"};
  out["cache.replaced_per_batch"] = {replaced / b, "count"};
  out["tensor.gather_ms_per_batch"] = per_batch("gather");
  out["tensor.matmul_ms_per_batch"] = per_batch("matmul");
  out["nn.forward_ms_per_batch"] = per_batch("forward");
  out["nn.loss_ms_per_batch"] = per_batch("loss");
  out["nn.backward_ms_per_batch"] = per_batch("backward");
  out["nn.optim_ms_per_batch"] = per_batch("optim");
  out["nn.forward_gflops"] = {flops / (1e6 * timers.ms("forward")), "GFLOP/s"};
  out["compute.spmm_ms_per_batch"] =
      per_batch(std::string("spmm.") + compute::kBlockedBackendId);
  for (const std::string& id : backend_ids) {
    out["compute.spmm_ms_per_batch." + id] = per_batch("spmm." + id);
  }
  double step_ms = 0.0;
  for (const char* t : {"sample", "lookup", "gather", "forward", "loss",
                        "backward", "optim"}) {
    step_ms += timers.ms(t) / b;
  }
  out["runtime.probe_over_loop"] = {step_ms / loop_ms_per_batch, "ratio"};

  // --- estimator: a 10-run corpus on this dataset, fit, serial predict.
  t = Clock::now();
  const std::vector<estimator::ProfiledRun> corpus =
      estimator::collect_profiles(ds, ctx.hw, corpus_options(ctx, 10, 2));
  const double collect_s = seconds_since(t);
  out["estimator.collect_s"] = {collect_s, "s"};
  out["estimator.collect_runs_per_s"] = {static_cast<double>(corpus.size()) / collect_s, "1/s"};
  estimator::PerfEstimator est(ctx.hw);
  t = Clock::now();
  est.fit(corpus);
  out["estimator.fit_ms"] = {1e3 * seconds_since(t), "ms"};

  // --- dse: one full exploration and decision.
  const estimator::DatasetStats stats = estimator::compute_dataset_stats(ds);
  dse::BaseSettings base;
  base.model = config.model;
  const dse::DesignSpace space = dse::DesignSpace::full(base);
  dse::Explorer explorer(space, est, stats);
  explorer.set_pool(ctx.pool);
  dse::RuntimeConstraints constraints;
  constraints.max_memory_gb = ctx.hw.device.memory_gb;
  t = Clock::now();
  const dse::ExplorationResult result =
      explorer.explore(constraints, runtime::all_templates());
  out["dse.explore_ms"] = {1e3 * seconds_since(t), "ms"};
  t = Clock::now();
  const dse::Decision decision =
      dse::DecisionMaker(dse::targets_balance()).decide(result);
  out["dse.decide_ms"] = {1e3 * seconds_since(t), "ms"};
  out["dse.leaves_evaluated"] = {static_cast<double>(result.stats.leaves_evaluated), "count"};
  out["dse.subtrees_pruned"] = {static_cast<double>(result.stats.subtrees_pruned), "count"};
  ctx.check(valid_config(decision.chosen.config) &&
                finite_prediction(decision.chosen.predicted),
            "probe guideline is invalid or has a non-finite prediction");
  // Serial predictions over (at most 2000 of) the explored candidates.
  const std::size_t n_predict = std::min<std::size_t>(result.feasible.size(), 2000);
  t = Clock::now();
  double checksum = 0.0;
  for (std::size_t i = 0; i < n_predict; ++i) {
    checksum += est.predict(result.feasible[i].config, stats).time_s;
  }
  out["estimator.predict_us"] = {
      1e6 * seconds_since(t) / static_cast<double>(std::max<std::size_t>(n_predict, 1)),
      "us"};
  ctx.check(std::isfinite(checksum), "probe predictions are not finite");

  // --- serve + support: a 4-job drain over the shared pool.
  serve::SchedulerOptions sopts;
  sopts.max_active = 2;
  sopts.pool = ctx.pool;
  sopts.seed = ctx.derive(52);
  serve::JobScheduler sched(backend, est, stats, sopts, &space);
  std::vector<serve::JobRequest> jobs(4);
  jobs[0].config = runtime::template_pyg();
  jobs[1].config = runtime::template_pagraph_full();
  jobs[1].pipeline = async_executor(2, 1);
  jobs[2].config = runtime::template_fastgcn();
  jobs[2].backend_id = compute::kScalarBackendId;
  jobs[3].kind = serve::JobKind::kNavigateTrain;
  jobs[3].config = runtime::template_pyg();
  jobs[3].constraints = constraints;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].config.model = config.model;
    jobs[i].config.batch_size = 256;
    jobs[i].epochs = 1;
    jobs[i].tenant = "tenant-" + std::to_string(i % 2);
    sched.submit(jobs[i]);
  }
  PendingProbe pending(*ctx.pool);
  const serve::DrainStats drain = sched.drain();
  const std::size_t peak_pending = pending.stop();
  std::vector<double> waits, runs;
  double run_sum = 0.0, rejected = 0.0;
  for (std::size_t id = 0; id < sched.size(); ++id) {
    const serve::JobOutcome job = sched.outcome(id);
    if (job.state == serve::JobState::kRejected) rejected += 1.0;
    waits.push_back(1e3 * job.queue_wait_s);
    runs.push_back(1e3 * job.run_s);
    run_sum += job.run_s;
  }
  out["serve.queue_wait_p50_ms"] = {median(waits), "ms"};
  out["serve.run_p50_ms"] = {median(runs), "ms"};
  out["serve.lane_busy_share"] = {
      drain.wall_s > 0.0 ? run_sum / (2.0 * drain.wall_s) : 0.0, "ratio"};
  out["serve.rejected"] = {rejected, "count"};
  out["serve.failed"] = {static_cast<double>(drain.failed), "count"};
  out["support.pool_peak_pending"] = {static_cast<double>(peak_pending), "count"};
  ctx.check(drain.completed == jobs.size(), "probe drain did not complete every job");
  return out;
}

}  // namespace gnav::bench
