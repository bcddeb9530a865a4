// Multi-tenant serving throughput under contention: the same job mix is
// drained through serve::JobScheduler at 1..N concurrently active
// tenants over one shared thread pool, reporting jobs/min per tenant
// count next to the admission prices the scheduler computed.
//
// Two hard-fail guarantees (exit 1), mirroring the test suite:
//
//   - determinism: every contended job's TrainReport data fields must be
//     bit-identical to running that job alone (timing fields excluded) —
//     any divergence means tenant isolation broke;
//   - admission: the scheduler's price must equal
//     PerfEstimator::predict_pipelined_wall_s recomputed directly, so
//     the published throughput numbers provably correspond to
//     estimator-priced admission.
//
//   ./bench_serve [--json out.json] [--jobs N] [--epochs N] [--tenants N]
//                 [--trace-out trace.json] [--metrics-out metrics.prom]
//
// Emits a JSON document (stdout by default) so CI archives the serving
// throughput trajectory next to bench_pipeline / bench_overlap_fit.
// --trace-out / --metrics-out record the whole sweep through the
// telemetry layer (Chrome trace-event JSON + Prometheus text); CI runs
// the Release sweep with both and uploads the files as artifacts.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "compute/backend.hpp"
#include "estimator/dataset_stats.hpp"
#include "estimator/profile_collector.hpp"
#include "obs/export.hpp"
#include "graph/dataset.hpp"
#include "hw/platform.hpp"
#include "runtime/backend.hpp"
#include "runtime/templates.hpp"
#include "serve/job_scheduler.hpp"
#include "support/parallel.hpp"

using namespace gnav;

namespace {

struct TenantResult {
  std::size_t tenants = 0;
  double wall_s = 0.0;
  double jobs_per_min = 0.0;
  double speedup_vs_1 = 0.0;
  std::size_t peak_pending = 0;  // deepest pool backlog observed
  bool identical_to_solo = false;
};

struct AdmissionRow {
  std::size_t id = 0;
  std::string executor;
  std::string backend;
  double price_wall_s = 0.0;
  double serial_stage_s = 0.0;
  double overlap_ratio = 1.0;
  bool fitted = false;
};

/// The serve bit-identity contract: every data-bearing field equal,
/// wall-clock observables exempt.
bool reports_match(const runtime::TrainReport& a,
                   const runtime::TrainReport& b) {
  return a.epoch_loss == b.epoch_loss && a.epoch_times_s == b.epoch_times_s &&
         a.epoch_train_accuracy == b.epoch_train_accuracy &&
         a.epoch_val_accuracy == b.epoch_val_accuracy &&
         a.final_train_accuracy == b.final_train_accuracy &&
         a.val_accuracy == b.val_accuracy &&
         a.test_accuracy == b.test_accuracy &&
         a.epoch_time_s == b.epoch_time_s &&
         a.peak_memory_gb == b.peak_memory_gb &&
         a.cache_hit_rate == b.cache_hit_rate &&
         a.avg_batch_nodes == b.avg_batch_nodes &&
         a.avg_batch_edges == b.avg_batch_edges &&
         a.per_batch_nodes == b.per_batch_nodes &&
         a.iterations_per_epoch == b.iterations_per_epoch &&
         a.pipeline.modeled_overlapped_s == b.pipeline.modeled_overlapped_s &&
         a.pipeline.modeled_sequential_s == b.pipeline.modeled_sequential_s;
}

std::vector<serve::JobRequest> make_jobs(int jobs, int epochs,
                                         std::size_t tenants) {
  std::vector<serve::JobRequest> out;
  for (int i = 0; i < jobs; ++i) {
    serve::JobRequest req;
    switch (i % 4) {
      case 0:
        req.config = runtime::template_pyg();
        break;
      case 1:
        req.config = runtime::template_pagraph_full();
        req.config.pipeline_overlap = true;
        req.pipeline.mode = runtime::PipelineMode::kAsync;
        req.pipeline.prefetch_depth = 2;
        req.pipeline.sampler_workers = 2;
        break;
      case 2:
        req.config = runtime::template_fastgcn();
        req.backend_id = compute::kScalarBackendId;
        break;
      default:
        req.config = runtime::template_pyg();
        req.config.pipeline_overlap = true;
        req.pipeline.mode = runtime::PipelineMode::kAsync;
        req.pipeline.prefetch_depth = 4;
        req.pipeline.sampler_workers = 1;
        break;
    }
    req.config.batch_size = 256;
    req.epochs = epochs;
    req.tenant = "tenant-" + std::to_string(static_cast<std::size_t>(i) %
                                            tenants);
    out.push_back(req);
  }
  return out;
}

void emit_json(std::FILE* out, int jobs, int epochs,
               const std::vector<AdmissionRow>& admission,
               const std::vector<TenantResult>& results) {
  std::fprintf(out, "{\n  \"benchmark\": \"bench_serve\",\n");
  std::fprintf(out, "  \"jobs\": %d,\n  \"epochs\": %d,\n", jobs, epochs);
  std::fprintf(out, "  \"admission\": [\n");
  for (std::size_t i = 0; i < admission.size(); ++i) {
    const AdmissionRow& a = admission[i];
    std::fprintf(out,
                 "    {\"id\": %zu, \"executor\": \"%s\", \"backend\": \"%s\", "
                 "\"price_wall_s\": %.9f, \"serial_stage_s\": %.9f, "
                 "\"overlap_ratio\": %.4f, \"fitted\": %s}%s\n",
                 a.id, a.executor.c_str(), a.backend.c_str(), a.price_wall_s,
                 a.serial_stage_s, a.overlap_ratio,
                 a.fitted ? "true" : "false",
                 i + 1 < admission.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TenantResult& r = results[i];
    std::fprintf(out,
                 "    {\"tenants\": %zu, \"wall_s\": %.6f, "
                 "\"jobs_per_min\": %.3f, \"speedup_vs_1\": %.3f, "
                 "\"peak_pending\": %zu, \"identical_to_solo\": %s}%s\n",
                 r.tenants, r.wall_s, r.jobs_per_min, r.speedup_vs_1,
                 r.peak_pending, r.identical_to_solo ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string trace_path;
  std::string metrics_path;
  int jobs = 8;
  int epochs = 2;
  int max_tenants = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc) {
      epochs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      max_tenants = std::atoi(argv[++i]);
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--json out.json] [--jobs N] [--epochs N] [--tenants N] "
          "[--trace-out trace.json] [--metrics-out metrics.prom]\n",
          argv[0]);
      return 1;
    }
  }
  const obs::ExportScope telemetry(trace_path, metrics_path);
  if (jobs < 1 || epochs < 1 || max_tenants < 1) {
    std::fprintf(stderr, "--jobs/--epochs/--tenants must be >= 1\n");
    return 1;
  }

  graph::SyntheticSpec spec;
  spec.name = "bench-serve";
  spec.num_nodes = 4000;
  spec.num_classes = 8;
  spec.feature_dim = 32;
  spec.min_degree = 4;
  spec.max_degree = 100;
  const graph::Dataset ds = graph::make_synthetic_dataset(spec, 23);
  const auto hw = hw::make_profile("rtx4090");
  runtime::RuntimeBackend backend(ds, hw);
  const estimator::DatasetStats stats = estimator::compute_dataset_stats(ds);

  // Fit the estimator on a small async-bearing corpus so admission runs
  // with the fitted overlap model (the Eq. 4 fallback is exercised by the
  // test suite instead).
  std::fprintf(stderr, "fitting estimator (10-run corpus)...\n");
  estimator::CollectorOptions copts;
  copts.configs_per_dataset = 10;
  copts.epochs = 1;
  copts.seed = 31;
  copts.async_every = 2;
  const auto corpus = estimator::collect_profiles(ds, hw, copts);
  estimator::PerfEstimator est(hw);
  est.fit(corpus);

  support::ThreadPool pool;  // shared across every sweep, default size

  // Price + solo baselines (job seeds depend only on submission order, so
  // one probe scheduler fixes them for every sweep).
  std::vector<AdmissionRow> admission;
  std::vector<runtime::TrainReport> solo;
  const auto job_templates =
      make_jobs(jobs, epochs, static_cast<std::size_t>(max_tenants));
  {
    serve::SchedulerOptions options;
    options.pool = &pool;
    options.seed = 3;
    serve::JobScheduler probe(backend, est, stats, options);
    for (const auto& req : job_templates) probe.submit(req);
    for (std::size_t id = 0; id < probe.size(); ++id) {
      const serve::JobOutcome& job = probe.outcome(id);
      AdmissionRow row;
      row.id = id;
      row.executor = runtime::to_string(job.request.pipeline.mode);
      row.backend = job.request.backend_id;
      row.price_wall_s = job.price.predicted_wall_s;
      row.serial_stage_s = job.price.serial_stage_s;
      row.overlap_ratio = job.price.overlap_ratio;
      row.fitted = job.price.overlap_fitted;
      admission.push_back(row);

      // Hard guarantee #2: the scheduler's price IS the estimator's
      // pipelined-wall prediction (or the serial wall for sync jobs).
      const auto p = est.predict(job.request.config, stats);
      const double serial = (p.overlap_ratio_analytic > 0.0
                                 ? p.time_s / p.overlap_ratio_analytic
                                 : p.time_s) *
                            static_cast<double>(job.request.epochs);
      double expected = serial;
      if (job.request.pipeline.mode == runtime::PipelineMode::kAsync) {
        const estimator::OverlapExecutorShape shape{
            job.request.pipeline.prefetch_depth,
            job.request.pipeline.sampler_workers > 0
                ? job.request.pipeline.sampler_workers
                : 4};
        expected =
            est.predict_pipelined_wall_s(job.request.config, stats, shape,
                                         serial);
      }
      if (row.price_wall_s != expected) {
        std::fprintf(stderr,
                     "FAIL: job %zu admission price %.12g != "
                     "predict_pipelined_wall_s %.12g\n",
                     id, row.price_wall_s, expected);
        return 1;
      }

      std::fprintf(stderr, "solo job %zu (%s, %s)...\n", id,
                   row.executor.c_str(), row.backend.c_str());
      runtime::RunOptions ro;
      ro.epochs = job.request.epochs;
      ro.seed = job.seed;
      ro.evaluate_every_epoch = false;
      ro.record_batch_sizes = true;
      ro.pool = &pool;
      ro.backend_id = job.request.backend_id;
      ro.pipeline = job.request.pipeline;
      solo.push_back(backend.run(job.request.config, ro));
    }
  }

  bool all_identical = true;
  std::vector<TenantResult> results;
  for (int tenants = 1; tenants <= max_tenants; ++tenants) {
    serve::SchedulerOptions options;
    options.pool = &pool;
    options.seed = 3;
    options.max_active = static_cast<std::size_t>(tenants);
    serve::JobScheduler sched(backend, est, stats, options);
    for (const auto& req :
         make_jobs(jobs, epochs, static_cast<std::size_t>(tenants))) {
      sched.submit(req);
    }

    // Backlog probe: sample the shared pool's queue depth while the
    // drain runs (diagnostic only — instantaneous and racy by nature).
    std::atomic<bool> done{false};
    std::size_t peak_pending = 0;
    std::thread prober([&] {
      while (!done.load(std::memory_order_relaxed)) {
        peak_pending = std::max(peak_pending, pool.pending());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    const serve::DrainStats dstats = sched.drain();
    done.store(true, std::memory_order_relaxed);
    prober.join();

    TenantResult r;
    r.tenants = static_cast<std::size_t>(tenants);
    r.wall_s = dstats.wall_s;
    r.jobs_per_min = dstats.jobs_per_min();
    r.peak_pending = peak_pending;
    r.identical_to_solo = true;
    for (std::size_t id = 0; id < sched.size(); ++id) {
      if (sched.outcome(id).state != serve::JobState::kDone ||
          !reports_match(solo[id], sched.outcome(id).report)) {
        r.identical_to_solo = false;
        all_identical = false;
        std::fprintf(stderr,
                     "FAIL: job %zu at %d tenants diverged from its solo "
                     "run (state=%s)\n",
                     id, tenants,
                     serve::to_string(sched.outcome(id).state).c_str());
      }
    }
    r.speedup_vs_1 =
        results.empty() ? 1.0
                        : (results.front().wall_s > 0.0 && r.wall_s > 0.0
                               ? results.front().wall_s / r.wall_s
                               : 0.0);
    std::fprintf(stderr,
                 "%d tenant(s): wall=%7.3fs  jobs/min=%7.2f  "
                 "speedup=%5.2fx  peak_pending=%zu  identical=%s\n",
                 tenants, r.wall_s, r.jobs_per_min, r.speedup_vs_1,
                 r.peak_pending, r.identical_to_solo ? "yes" : "NO");
    results.push_back(r);
  }

  std::FILE* out = stdout;
  if (!json_path.empty()) {
    out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
  }
  emit_json(out, jobs, epochs, admission, results);
  if (out != stdout) std::fclose(out);

  // Hard guarantee #1: contention never changes results.
  return all_identical ? 0 : 1;
}
