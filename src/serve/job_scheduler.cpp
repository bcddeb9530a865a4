#include "serve/job_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <future>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"

namespace gnav::serve {
namespace {

/// Per-tenant serve instruments, resolved find-or-create per call (the
/// registry lookup is a map find under a leaf mutex — negligible next to
/// running a job). Totals are gauges fed by add(): Prometheus-side they
/// read as monotone totals, and reset_values() zeroes them with the rest.
struct TenantInstruments {
  obs::Counter& jobs_done;
  obs::Counter& jobs_failed;
  obs::Gauge& queue_wait_s;
  obs::Gauge& run_s;
  obs::Gauge& price_s;
};

TenantInstruments tenant_instruments(const std::string& tenant) {
  auto& reg = obs::MetricsRegistry::global();
  return TenantInstruments{
      reg.counter("gnav_serve_jobs_total", {{"tenant", tenant},
                                            {"state", "done"}},
                  "Jobs finished by the scheduler, by tenant and outcome"),
      reg.counter("gnav_serve_jobs_total", {{"tenant", tenant},
                                            {"state", "failed"}},
                  "Jobs finished by the scheduler, by tenant and outcome"),
      reg.gauge("gnav_serve_queue_wait_seconds_total", {{"tenant", tenant}},
                "Total submit-to-pick wait, by tenant"),
      reg.gauge("gnav_serve_run_seconds_total", {{"tenant", tenant}},
                "Total pick-to-completion run time, by tenant"),
      reg.gauge("gnav_serve_price_seconds_total", {{"tenant", tenant}},
                "Total admission price (predicted wall seconds) of jobs "
                "run, by tenant"),
  };
}

}  // namespace

std::string to_string(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRejected:
      return "rejected";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
  }
  return "unknown";
}

JobScheduler::JobScheduler(const runtime::RuntimeBackend& backend,
                           estimator::PerfEstimator& est,
                           estimator::DatasetStats stats,
                           SchedulerOptions options,
                           const dse::DesignSpace* space)
    : backend_(&backend),
      estimator_(&est),
      stats_(std::move(stats)),
      options_(std::move(options)),
      space_(space) {
  GNAV_CHECK(options_.max_active >= 1,
             "SchedulerOptions::max_active must be >= 1");
  GNAV_CHECK(!options_.refit_after_drain || options_.base_corpus != nullptr,
             "refit_after_drain requires a base_corpus to refit on");
}

AdmissionPrice JobScheduler::price_locked(const JobRequest& request) const {
  const estimator::PerfPrediction p =
      estimator_->predict(request.config, stats_);
  AdmissionPrice out;
  // The estimator's T already folds Eq. 4's analytic overlap into
  // pipelined configs; divide it back out to recover the serial stage
  // seconds predict_pipelined_wall_s expects.
  const double serial_epoch_s = p.overlap_ratio_analytic > 0.0
                                    ? p.time_s / p.overlap_ratio_analytic
                                    : p.time_s;
  out.serial_stage_s = serial_epoch_s * static_cast<double>(request.epochs);
  if (request.pipeline.mode == runtime::PipelineMode::kAsync) {
    // A request that leaves sampler_workers at 0 (auto) is priced at
    // OverlapExecutorShape{}'s 4 workers.
    estimator::OverlapExecutorShape shape;
    if (request.pipeline.prefetch_depth > 0) {
      shape.prefetch_depth = request.pipeline.prefetch_depth;
    }
    if (request.pipeline.sampler_workers > 0) {
      shape.sampler_workers = request.pipeline.sampler_workers;
    }
    out.predicted_wall_s = estimator_->predict_pipelined_wall_s(
        request.config, stats_, shape, out.serial_stage_s);
    out.overlap_ratio = out.serial_stage_s > 0.0
                            ? out.predicted_wall_s / out.serial_stage_s
                            : 1.0;
    out.overlap_fitted = request.config.pipeline_overlap &&
                         estimator_->overlap_model().is_fitted();
  } else {
    // The sync executor runs the stages back to back: its wall IS the
    // serial stage time.
    out.predicted_wall_s = out.serial_stage_s;
  }
  return out;
}

AdmissionPrice JobScheduler::price(const JobRequest& request) const {
  const support::MutexLock lock(mutex_);
  return price_locked(request);
}

std::size_t JobScheduler::submit(JobRequest request) {
  GNAV_CHECK(request.priority > 0.0, "JobRequest::priority must be > 0");
  GNAV_CHECK(request.epochs >= 1, "JobRequest::epochs must be >= 1");
  GNAV_CHECK(request.kind == JobKind::kTrain || space_ != nullptr,
             "kNavigateTrain requires a scheduler built with a DesignSpace");
  GNAV_CHECK(compute::BackendFactory::is_registered(request.backend_id),
             "JobRequest::backend_id \"" + request.backend_id +
                 "\" is not a registered compute backend");
  request.config.validate();

  const support::MutexLock lock(mutex_);
  const std::size_t id = jobs_.size();
  auto job = std::make_unique<JobOutcome>();
  job->id = id;
  job->seed = request.seed != 0
                  ? request.seed
                  : support::task_seed(options_.seed, static_cast<std::uint64_t>(id));
  // gnav-lint(wall-clock): profiler wall — JobOutcome::queue_wait_s only.
  job->submitted_at = std::chrono::steady_clock::now();
  job->request = std::move(request);
  job->price = price_locked(job->request);
  if (options_.max_price_s > 0.0 &&
      job->price.predicted_wall_s > options_.max_price_s) {
    job->state = JobState::kRejected;
  } else {
    job->state = JobState::kQueued;
    queue_.push_back(id);
    // Last submit wins the tenant's fair-share weight; per-job weights
    // would make "tenant priority" ill-defined.
    tenants_[job->request.tenant].priority = job->request.priority;
  }
  jobs_.push_back(std::move(job));
  return id;
}

JobOutcome* JobScheduler::pick_next_locked() {
  if (queue_.empty()) return nullptr;
  // Argmin over queued jobs of their tenant's virtual time; queue_ holds
  // ids in ascending order, and strict `<` keeps the first (lowest-id)
  // job of the least-loaded tenant — the documented tie-break.
  std::size_t best_pos = 0;
  double best_virtual = std::numeric_limits<double>::infinity();
  for (std::size_t pos = 0; pos < queue_.size(); ++pos) {
    const JobOutcome& job = *jobs_[queue_[pos]];
    const double v = tenants_[job.request.tenant].virtual_s;
    if (v < best_virtual) {
      best_virtual = v;
      best_pos = pos;
    }
  }
  JobOutcome* job = jobs_[queue_[best_pos]].get();
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best_pos));
  Tenant& tenant = tenants_[job->request.tenant];
  // Charge the admission price at pick time (divided by the fair-share
  // weight) so the pick sequence is a pure function of the queue. The
  // epsilon floor keeps a zero-priced job from starving other tenants.
  tenant.virtual_s +=
      std::max(job->price.predicted_wall_s, 1e-9) / tenant.priority;
  job->state = JobState::kRunning;
  job->start_order = starts_++;
  // gnav-lint(wall-clock): profiler wall — JobOutcome::queue_wait_s only.
  const auto picked_at = std::chrono::steady_clock::now();
  job->queue_wait_s =
      std::chrono::duration<double>(picked_at - job->submitted_at).count();
  return job;
}

void JobScheduler::run_job(JobOutcome& job) {
  const JobRequest& request = job.request;
  char span_name[40];
  std::snprintf(span_name, sizeof(span_name), "job-%zu %s", job.id,
                job.request.tenant.c_str());
  GNAV_TRACE_SPAN("serve", span_name);
  // gnav-lint(wall-clock): profiler wall — JobOutcome::run_s only.
  const auto run_t0 = std::chrono::steady_clock::now();
  try {
    if (request.kind == JobKind::kNavigateTrain) {
      // Step 2 for this tenant: explore the scheduler's design space
      // seeded with the request's config, decide with the request's
      // priorities. Explorer::explore fans out on the pool; called from
      // this pool worker it runs inline (nested safety), so navigation
      // never deadlocks the lanes. Prediction is const on the estimator —
      // safe concurrently with other jobs' navigations and price()
      // queries (refits only happen after every lane joined).
      dse::Explorer explorer(*space_, *estimator_, stats_);
      explorer.set_pool(options_.pool);
      const dse::ExplorationResult result =
          explorer.explore(request.constraints, {request.config});
      const dse::Decision decision =
          dse::DecisionMaker(request.targets).decide(result);
      job.decided_config = decision.chosen.config;
      job.decided_config.name = "gnav-" + request.targets.name;
    } else {
      job.decided_config = request.config;
    }

    runtime::RunOptions ro;
    ro.epochs = request.epochs;
    ro.seed = job.seed;
    ro.evaluate_every_epoch = request.evaluate_every_epoch;
    // Feedback rows feed PerfEstimator::fit like collector rows do.
    ro.record_batch_sizes = true;
    ro.backend_id = request.backend_id;
    ro.pipeline = request.pipeline;
    job.report = backend_->run(job.decided_config, ro);
    job.state = JobState::kDone;
  } catch (const std::exception& e) {
    job.error = e.what();
    job.state = JobState::kFailed;
  }
  // gnav-lint(wall-clock): profiler wall — JobOutcome::run_s only.
  job.run_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            run_t0)
                  .count();
  const TenantInstruments ins = tenant_instruments(job.request.tenant);
  (job.state == JobState::kDone ? ins.jobs_done : ins.jobs_failed).add(1);
  ins.queue_wait_s.add(job.queue_wait_s);
  ins.run_s.add(job.run_s);
  ins.price_s.add(job.price.predicted_wall_s);
}

void JobScheduler::worker_loop() {
  for (;;) {
    JobOutcome* job = nullptr;
    {
      const support::MutexLock lock(mutex_);
      job = pick_next_locked();
    }
    if (job == nullptr) return;
    run_job(*job);
  }
}

DrainStats JobScheduler::drain() {
  support::ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : support::global_pool();
  std::size_t lanes = 0;
  std::size_t starts_before = 0;
  {
    // starts_before must be read HERE, under the same lock as the lane
    // count. It used to be read after this block with no lock at all —
    // benign while drain() was called from one thread, but an unguarded
    // read of mutex-guarded state nonetheless, and the first thing
    // -Wthread-safety flagged when starts_ gained its GUARDED_BY
    // (regression: ServeScheduler.ConcurrentSubmitDuringDrainIsSafe).
    const support::MutexLock lock(mutex_);
    lanes = std::min(options_.max_active, queue_.size());
    starts_before = starts_;
  }

  DrainStats stats;
  // gnav-lint(wall-clock): profiler wall — DrainStats::wall_s only.
  const auto t0 = std::chrono::steady_clock::now();
  if (lanes > 0) {
    // Each lane drains jobs until the queue is empty; the fair-share pick
    // under the mutex decides order, the lanes only provide concurrency.
    // From a non-worker thread the lanes run on pool workers; from inside
    // a worker, submit executes eagerly and the lanes run serially — in
    // both cases every job still runs with its own RunOptions and the
    // reports are bit-identical (test_serve.cpp).
    std::vector<std::future<void>> futures;
    futures.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
      futures.push_back(pool.submit([this] { worker_loop(); }));
    }
    for (auto& f : futures) f.get();
  }
  // gnav-lint(wall-clock): profiler wall — closes t0 above.
  const auto drain_end = std::chrono::steady_clock::now();
  stats.wall_s = std::chrono::duration<double>(drain_end - t0).count();

  const support::MutexLock lock(mutex_);
  stats.started = starts_ - starts_before;
  // Assemble the feedback corpus in job-id order — never completion
  // order — so online refits are deterministic under contention.
  feedback_.clear();
  for (const auto& job : jobs_) {
    const bool this_drain = job->start_order >= starts_before &&
                            (job->state == JobState::kDone ||
                             job->state == JobState::kFailed);
    if (job->state == JobState::kDone) {
      if (this_drain) stats.completed += 1;
      feedback_.push_back(
          estimator::ProfiledRun{stats_, job->decided_config, job->report});
    } else if (job->state == JobState::kFailed && this_drain) {
      stats.failed += 1;
    }
  }
  if (options_.refit_after_drain && !feedback_.empty()) {
    std::vector<estimator::ProfiledRun> corpus = *options_.base_corpus;
    corpus.insert(corpus.end(), feedback_.begin(), feedback_.end());
    estimator_->fit(corpus);
  }

  if (obs::metrics_enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    static obs::Counter& drains =
        reg.counter("gnav_serve_drains_total", {},
                    "drain() calls that ran to completion");
    static obs::Gauge& drain_wall =
        reg.gauge("gnav_serve_drain_wall_seconds", {},
                  "Wall seconds of the most recent drain()");
    drains.add(1);
    drain_wall.set(stats.wall_s);
    // Per-tenant drain summary: std::map keeps tenant order deterministic.
    struct TenantDrain {
      std::size_t done = 0, failed = 0;
      double wait_s = 0.0, run_s = 0.0, price_s = 0.0;
    };
    std::map<std::string, TenantDrain> by_tenant;
    for (const auto& job : jobs_) {
      if (job->start_order < starts_before ||
          (job->state != JobState::kDone &&
           job->state != JobState::kFailed)) {
        continue;
      }
      TenantDrain& t = by_tenant[job->request.tenant];
      (job->state == JobState::kDone ? t.done : t.failed) += 1;
      t.wait_s += job->queue_wait_s;
      t.run_s += job->run_s;
      t.price_s += job->price.predicted_wall_s;
    }
    for (const auto& [tenant, t] : by_tenant) {
      log_info("drain tenant=", tenant, " done=", t.done,
                        " failed=", t.failed, " queue_wait_s=", t.wait_s,
                        " run_s=", t.run_s, " price_s=", t.price_s);
    }
  }
  return stats;
}

std::size_t JobScheduler::size() const {
  const support::MutexLock lock(mutex_);
  return jobs_.size();
}

JobOutcome JobScheduler::outcome(std::size_t id) const {
  const support::MutexLock lock(mutex_);
  GNAV_CHECK(id < jobs_.size(), "job id out of range");
  return *jobs_[id];
}

std::vector<estimator::ProfiledRun> JobScheduler::feedback() const {
  const support::MutexLock lock(mutex_);
  return feedback_;
}

}  // namespace gnav::serve
