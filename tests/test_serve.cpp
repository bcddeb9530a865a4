// Tests for the multi-tenant serve layer (serve::JobScheduler):
//
//   - admission pricing is EXACTLY PerfEstimator::predict_pipelined_wall_s
//     (fitted overlap when the corpus carried async rows, Eq. 4 fallback
//     on a sync-only corpus) and the price ceiling rejects at submit;
//   - the fair-share pick sequence is deterministic and weights tenants
//     by priority;
//   - contention bit-identity: N jobs submitted together each produce a
//     TrainReport whose data fields are identical to running the job
//     alone (timing fields excluded), at pool sizes {1, 2, 8} × max_active
//     {1, 2, 4};
//   - backend isolation: concurrent jobs with different compute backend
//     ids never read each other's selection — covered by the TSan CI job
//     together with the rest of this file;
//   - online feedback: drain() folds completed jobs back into the corpus
//     and refits, flipping admission pricing from the analytic fallback
//     to the fitted overlap model;
//   - kNavigateTrain jobs run DSE-then-train deterministically.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "compute/backend.hpp"
#include "dse/design_space.hpp"
#include "dse/objectives.hpp"
#include "estimator/dataset_stats.hpp"
#include "estimator/profile_collector.hpp"
#include "graph/dataset.hpp"
#include "hw/platform.hpp"
#include "runtime/templates.hpp"
#include "serve/job_scheduler.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace gnav::serve {
namespace {

using runtime::PipelineMode;

graph::Dataset serve_dataset() {
  graph::SyntheticSpec spec;
  spec.name = "serve-unit";
  spec.num_nodes = 600;
  spec.num_classes = 4;
  spec.feature_dim = 12;
  spec.min_degree = 3;
  spec.max_degree = 60;
  return graph::make_synthetic_dataset(spec, 5);
}

/// Every deterministic (non-wall-clock) field must match EXACTLY — the
/// same contract test_pipeline.cpp pins for sync-vs-async executors.
void expect_reports_bit_identical(const runtime::TrainReport& solo,
                                  const runtime::TrainReport& contended) {
  EXPECT_EQ(solo.epoch_loss, contended.epoch_loss);
  EXPECT_EQ(solo.epoch_times_s, contended.epoch_times_s);
  EXPECT_EQ(solo.epoch_train_accuracy, contended.epoch_train_accuracy);
  EXPECT_EQ(solo.epoch_val_accuracy, contended.epoch_val_accuracy);
  EXPECT_EQ(solo.final_train_accuracy, contended.final_train_accuracy);
  EXPECT_EQ(solo.val_accuracy, contended.val_accuracy);
  EXPECT_EQ(solo.test_accuracy, contended.test_accuracy);
  EXPECT_EQ(solo.epoch_time_s, contended.epoch_time_s);
  EXPECT_EQ(solo.peak_memory_gb, contended.peak_memory_gb);
  EXPECT_EQ(solo.mem_model_gb, contended.mem_model_gb);
  EXPECT_EQ(solo.mem_cache_gb, contended.mem_cache_gb);
  EXPECT_EQ(solo.mem_runtime_gb, contended.mem_runtime_gb);
  EXPECT_EQ(solo.cache_hit_rate, contended.cache_hit_rate);
  EXPECT_EQ(solo.avg_batch_nodes, contended.avg_batch_nodes);
  EXPECT_EQ(solo.avg_batch_edges, contended.avg_batch_edges);
  EXPECT_EQ(solo.per_batch_nodes, contended.per_batch_nodes);
  EXPECT_EQ(solo.iterations_per_epoch, contended.iterations_per_epoch);
  EXPECT_EQ(solo.epoch_phases.sample_s, contended.epoch_phases.sample_s);
  EXPECT_EQ(solo.epoch_phases.transfer_s, contended.epoch_phases.transfer_s);
  EXPECT_EQ(solo.epoch_phases.replace_s, contended.epoch_phases.replace_s);
  EXPECT_EQ(solo.epoch_phases.compute_s, contended.epoch_phases.compute_s);
  EXPECT_EQ(solo.pipeline.modeled_overlapped_s,
            contended.pipeline.modeled_overlapped_s);
  EXPECT_EQ(solo.pipeline.modeled_sequential_s,
            contended.pipeline.modeled_sequential_s);
}

/// Rebuilds the exact RunOptions run_job() used for `job` — running the
/// backend with these IS "running the job alone".
runtime::RunOptions solo_options(const JobOutcome& job) {
  runtime::RunOptions ro;
  ro.epochs = job.request.epochs;
  ro.seed = job.seed;
  ro.evaluate_every_epoch = job.request.evaluate_every_epoch;
  ro.record_batch_sizes = true;
  ro.backend_id = job.request.backend_id;
  ro.pipeline = job.request.pipeline;
  return ro;
}

class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hw_ = new hw::HardwareProfile(hw::make_profile("rtx4090"));
    dataset_ = new graph::Dataset(serve_dataset());
    backend_ = new runtime::RuntimeBackend(*dataset_, *hw_);
    stats_ = new estimator::DatasetStats(
        estimator::compute_dataset_stats(*dataset_));

    estimator::CollectorOptions opts;
    opts.configs_per_dataset = 16;
    opts.epochs = 1;
    opts.seed = 77;
    opts.async_every = 2;  // half the corpus measures the async executor
    corpus_ = new std::vector<estimator::ProfiledRun>(
        estimator::collect_profiles(*dataset_, *hw_, opts));
    est_ = new estimator::PerfEstimator(*hw_);
    est_->fit(*corpus_);

    // A sync-only corpus leaves the overlap model unfitted — the Eq. 4
    // admission fallback the feedback test upgrades from.
    estimator::CollectorOptions sync_opts = opts;
    sync_opts.configs_per_dataset = 12;
    sync_opts.async_every = 0;
    sync_corpus_ = new std::vector<estimator::ProfiledRun>(
        estimator::collect_profiles(*dataset_, *hw_, sync_opts));
  }
  static void TearDownTestSuite() {
    delete sync_corpus_;
    delete est_;
    delete corpus_;
    delete stats_;
    delete backend_;
    delete dataset_;
    delete hw_;
  }

  static JobRequest async_request() {
    JobRequest req;
    req.config = runtime::template_pagraph_full();
    req.config.pipeline_overlap = true;
    req.config.batch_size = 128;
    req.epochs = 2;
    req.pipeline.mode = PipelineMode::kAsync;
    req.pipeline.prefetch_depth = 2;
    req.pipeline.sampler_workers = 2;
    return req;
  }

  static JobRequest sync_request() {
    JobRequest req;
    req.config = runtime::template_pyg();
    req.config.batch_size = 128;
    req.epochs = 1;
    req.pipeline.mode = PipelineMode::kSync;
    return req;
  }

  static hw::HardwareProfile* hw_;
  static graph::Dataset* dataset_;
  static runtime::RuntimeBackend* backend_;
  static estimator::DatasetStats* stats_;
  static std::vector<estimator::ProfiledRun>* corpus_;
  static std::vector<estimator::ProfiledRun>* sync_corpus_;
  static estimator::PerfEstimator* est_;
};

hw::HardwareProfile* ServeFixture::hw_ = nullptr;
graph::Dataset* ServeFixture::dataset_ = nullptr;
runtime::RuntimeBackend* ServeFixture::backend_ = nullptr;
estimator::DatasetStats* ServeFixture::stats_ = nullptr;
std::vector<estimator::ProfiledRun>* ServeFixture::corpus_ = nullptr;
std::vector<estimator::ProfiledRun>* ServeFixture::sync_corpus_ = nullptr;
estimator::PerfEstimator* ServeFixture::est_ = nullptr;

// ------------------------------------------------------ admission pricing

using ServeAdmission = ServeFixture;

TEST_F(ServeAdmission, PriceIsExactlyPredictPipelinedWall) {
  JobScheduler sched(*backend_, *est_, *stats_, SchedulerOptions{});
  JobRequest req = async_request();
  req.epochs = 3;

  const AdmissionPrice price = sched.price(req);
  const estimator::PerfPrediction p = est_->predict(req.config, *stats_);
  ASSERT_GT(p.overlap_ratio_analytic, 0.0);
  const double serial = p.time_s / p.overlap_ratio_analytic * 3.0;
  EXPECT_DOUBLE_EQ(price.serial_stage_s, serial);
  // The pinned claim: admission is predict_pipelined_wall_s, no more and
  // no less, under the request's executor shape.
  const estimator::OverlapExecutorShape shape{2, 2};
  EXPECT_DOUBLE_EQ(
      price.predicted_wall_s,
      est_->predict_pipelined_wall_s(req.config, *stats_, shape, serial));
  ASSERT_TRUE(est_->overlap_model().is_fitted());
  EXPECT_TRUE(price.overlap_fitted);
  EXPECT_GT(price.predicted_wall_s, 0.0);

  // Auto workers (0) are priced at OverlapExecutorShape{}'s 4.
  JobRequest auto_req = req;
  auto_req.pipeline.sampler_workers = 0;
  const estimator::OverlapExecutorShape auto_shape{2, 4};
  EXPECT_DOUBLE_EQ(
      sched.price(auto_req).predicted_wall_s,
      est_->predict_pipelined_wall_s(req.config, *stats_, auto_shape, serial));

  // Sync-executor jobs are priced at their serial stage seconds.
  JobRequest sync_req = req;
  sync_req.pipeline.mode = PipelineMode::kSync;
  const AdmissionPrice sync_price = sched.price(sync_req);
  EXPECT_DOUBLE_EQ(sync_price.predicted_wall_s, sync_price.serial_stage_s);
  EXPECT_FALSE(sync_price.overlap_fitted);
  EXPECT_DOUBLE_EQ(sync_price.overlap_ratio, 1.0);
}

TEST_F(ServeAdmission, CeilingRejectsAtSubmitNeverRuns) {
  SchedulerOptions options;
  JobScheduler probe(*backend_, *est_, *stats_, options);
  const double fair = probe.price(sync_request()).predicted_wall_s;
  ASSERT_GT(fair, 0.0);

  options.max_price_s = fair * 0.5;
  support::ThreadPool pool(2);
  options.pool = &pool;
  JobScheduler sched(*backend_, *est_, *stats_, options);
  const std::size_t id = sched.submit(sync_request());
  EXPECT_EQ(sched.outcome(id).state, JobState::kRejected);
  const DrainStats stats = sched.drain();
  EXPECT_EQ(stats.started, 0u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(sched.outcome(id).state, JobState::kRejected);
  EXPECT_EQ(to_string(sched.outcome(id).state), "rejected");
}

// ------------------------------------------------- deterministic schedule

using ServeScheduler = ServeFixture;

TEST_F(ServeScheduler, PerJobSeedsAreDerivedDeterministically) {
  SchedulerOptions options;
  options.seed = 21;
  JobScheduler sched(*backend_, *est_, *stats_, options);
  const std::size_t a = sched.submit(sync_request());
  JobRequest pinned = sync_request();
  pinned.seed = 1234;
  const std::size_t b = sched.submit(pinned);
  EXPECT_EQ(sched.outcome(a).seed, support::task_seed(21, 0));
  EXPECT_EQ(sched.outcome(b).seed, 1234u);
  EXPECT_EQ(sched.size(), 2u);
}

TEST_F(ServeScheduler, OutcomeIsAValueSnapshotNotALiveAlias) {
  support::ThreadPool pool(2);
  SchedulerOptions options;
  options.pool = &pool;
  options.seed = 7;
  JobScheduler sched(*backend_, *est_, *stats_, options);
  const std::size_t first = sched.submit(sync_request());
  // Bind the accessor's result by reference-to-const: with the old
  // `const JobOutcome&` signature this was a live alias into the
  // mutex-guarded job table, and the drain below rewrote it under us
  // (state flipping to kDone). By value it is a lifetime-extended
  // snapshot that the churn must not touch.
  const auto& before = sched.outcome(first);
  EXPECT_EQ(before.state, JobState::kQueued);
  for (int i = 0; i < 4; ++i) sched.submit(sync_request());
  sched.drain();
  EXPECT_EQ(before.state, JobState::kQueued);
  EXPECT_EQ(before.seed, support::task_seed(7, 0));
  const JobOutcome after = sched.outcome(first);
  EXPECT_EQ(after.state, JobState::kDone);
  EXPECT_EQ(after.seed, before.seed);
  EXPECT_EQ(after.start_order, 0u);
}

TEST_F(ServeScheduler, FairShareWeightsTenantsByPriority) {
  support::ThreadPool pool(2);
  SchedulerOptions options;
  options.pool = &pool;
  options.max_active = 1;  // single lane: start order IS the pick order
  JobScheduler sched(*backend_, *est_, *stats_, options);

  // Four jobs for the priority-2 tenant (ids 0-3), two for the
  // priority-1 tenant (ids 4, 5); identical configs mean identical
  // prices p, so the fair-share argmin (charge p / priority at pick,
  // ties to the lowest id) yields exactly: 0, 4, 1, 2, 5, 3.
  for (int i = 0; i < 4; ++i) {
    JobRequest req = sync_request();
    req.tenant = "heavy";
    req.priority = 2.0;
    sched.submit(req);
  }
  for (int i = 0; i < 2; ++i) {
    JobRequest req = sync_request();
    req.tenant = "light";
    req.priority = 1.0;
    sched.submit(req);
  }
  const DrainStats stats = sched.drain();
  EXPECT_EQ(stats.started, 6u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.wall_s, 0.0);
  EXPECT_GT(stats.jobs_per_min(), 0.0);

  const std::vector<std::size_t> expected_start_order = {0, 2, 3, 5, 1, 4};
  for (std::size_t id = 0; id < 6; ++id) {
    EXPECT_EQ(sched.outcome(id).start_order, expected_start_order[id])
        << "job " << id;
    EXPECT_EQ(sched.outcome(id).state, JobState::kDone);
  }
}

TEST_F(ServeScheduler, ConcurrentSubmitDuringDrainIsSafe) {
  // Regression for an unguarded read of starts_ in drain(): the
  // before-count used to be read outside the mutex, racing with
  // pick_next_locked()'s starts_++ on the lanes and with concurrent
  // submit() calls. Run drain() on one thread while another thread
  // keeps submitting; TSan (CI) pins the data-race half, the
  // accounting assertions below pin the lost-update half.
  support::ThreadPool pool(4);
  SchedulerOptions options;
  options.pool = &pool;
  options.seed = 3;
  options.max_active = 2;
  JobScheduler sched(*backend_, *est_, *stats_, options);
  for (int i = 0; i < 3; ++i) sched.submit(sync_request());

  DrainStats first;
  std::thread drainer([&] { first = sched.drain(); });
  constexpr std::size_t kLateJobs = 4;
  for (std::size_t i = 0; i < kLateJobs; ++i) sched.submit(sync_request());
  drainer.join();
  // Late jobs may or may not have been picked up by the first drain's
  // lanes; a second drain finishes whatever is left.
  const DrainStats second = sched.drain();

  EXPECT_EQ(sched.size(), 3 + kLateJobs);
  EXPECT_EQ(first.started + second.started, 3 + kLateJobs);
  EXPECT_EQ(first.completed + second.completed, 3 + kLateJobs);
  EXPECT_EQ(first.failed + second.failed, 0u);
  for (std::size_t id = 0; id < sched.size(); ++id) {
    EXPECT_EQ(sched.outcome(id).state, JobState::kDone) << "job " << id;
  }
}

// ----------------------------------------- contention bit-identity suite

using ServeContention = ServeFixture;

TEST_F(ServeContention, ReportsMatchSoloAtPoolSizes1_2_8) {
  // A mixed tenant load: sync and async executors, scalar and blocked
  // compute backends, two distinct configs.
  const auto make_jobs = [] {
    std::vector<JobRequest> jobs;
    JobRequest a = sync_request();
    a.tenant = "t0";
    a.epochs = 2;
    jobs.push_back(a);
    JobRequest b = sync_request();
    b.tenant = "t1";
    b.epochs = 2;
    b.backend_id = compute::kScalarBackendId;
    jobs.push_back(b);
    JobRequest c = async_request();
    c.tenant = "t0";
    jobs.push_back(c);
    JobRequest d = async_request();
    d.tenant = "t1";
    d.backend_id = compute::kScalarBackendId;
    jobs.push_back(d);
    return jobs;
  };

  // Solo baselines: each job run alone, exactly as run_job() would.
  std::vector<runtime::TrainReport> solo;
  {
    support::ThreadPool solo_pool(2);
    SchedulerOptions options;
    options.pool = &solo_pool;
    options.seed = 7;
    JobScheduler seeder(*backend_, *est_, *stats_, options);
    for (const JobRequest& req : make_jobs()) seeder.submit(req);
    for (std::size_t id = 0; id < seeder.size(); ++id) {
      solo.push_back(backend_->run(
          seeder.outcome(id).request.config,
          solo_options(seeder.outcome(id))));
    }
  }

  for (const std::size_t pool_size : {1u, 2u, 8u}) {
    // 1 active job runs the four back to back; 4 runs all at once.
    for (const std::size_t max_active : {1u, 2u, 4u}) {
      SCOPED_TRACE("pool size " + std::to_string(pool_size) +
                   ", max_active " + std::to_string(max_active));
      support::ThreadPool pool(pool_size);
      SchedulerOptions options;
      options.pool = &pool;
      options.seed = 7;
      options.max_active = max_active;
      JobScheduler sched(*backend_, *est_, *stats_, options);
      for (const JobRequest& req : make_jobs()) sched.submit(req);
      const DrainStats stats = sched.drain();
      EXPECT_EQ(stats.completed, 4u);
      EXPECT_EQ(stats.failed, 0u);
      for (std::size_t id = 0; id < 4; ++id) {
        SCOPED_TRACE("job " + std::to_string(id));
        ASSERT_EQ(sched.outcome(id).state, JobState::kDone);
        expect_reports_bit_identical(solo[id], sched.outcome(id).report);
      }
    }
  }
}

// --------------------------------------------- compute backend isolation

using ServeSpmmIsolation = ServeFixture;

TEST_F(ServeSpmmIsolation, ConcurrentBackendsMatchTheirSoloRuns) {
  // A cpu-blocked and a cpu-scalar job run side by side on one pool,
  // both pipelined under the async executor (any backend can run a
  // pipelined config). Each must report its own backend and match its
  // solo run bit-for-bit.
  support::ThreadPool pool(4);
  SchedulerOptions options;
  options.pool = &pool;
  options.max_active = 2;  // both jobs genuinely concurrent
  options.seed = 13;
  JobScheduler sched(*backend_, *est_, *stats_, options);

  JobRequest blocked = async_request();
  blocked.backend_id = compute::kBlockedBackendId;
  JobRequest scalar = async_request();
  scalar.backend_id = compute::kScalarBackendId;
  const std::size_t b_id = sched.submit(blocked);
  const std::size_t s_id = sched.submit(scalar);
  sched.drain();

  ASSERT_EQ(sched.outcome(b_id).state, JobState::kDone);
  ASSERT_EQ(sched.outcome(s_id).state, JobState::kDone);
  EXPECT_EQ(sched.outcome(b_id).report.backend_id,
            compute::kBlockedBackendId);
  EXPECT_EQ(sched.outcome(s_id).report.backend_id,
            compute::kScalarBackendId);
  const auto solo_blocked =
      backend_->run(blocked.config, solo_options(sched.outcome(b_id)));
  const auto solo_scalar =
      backend_->run(scalar.config, solo_options(sched.outcome(s_id)));
  expect_reports_bit_identical(solo_blocked, sched.outcome(b_id).report);
  expect_reports_bit_identical(solo_scalar, sched.outcome(s_id).report);
}

TEST_F(ServeSpmmIsolation, UnknownBackendIdIsRejectedAtSubmit) {
  JobScheduler sched(*backend_, *est_, *stats_, SchedulerOptions{});
  JobRequest req = sync_request();
  req.backend_id = "gpu-imaginary";
  EXPECT_THROW(sched.submit(req), Error);
}

// ------------------------------------------------- online corpus feedback

using ServeFeedback = ServeFixture;

TEST_F(ServeFeedback, DrainRefitsEstimatorAndUpgradesPricing) {
  // Start from the analytic fallback: a sync-only corpus leaves the
  // overlap model unfitted.
  estimator::PerfEstimator est(*hw_);
  est.fit(*sync_corpus_);
  ASSERT_FALSE(est.overlap_model().is_fitted());

  support::ThreadPool pool(4);
  SchedulerOptions options;
  options.pool = &pool;
  options.max_active = 2;
  options.refit_after_drain = true;
  options.base_corpus = sync_corpus_;
  JobScheduler sched(*backend_, est, *stats_, options);

  const AdmissionPrice before = sched.price(async_request());
  EXPECT_FALSE(before.overlap_fitted);

  // Five async jobs give the refit five measured-wall rows — above the
  // overlap model's minimum — so pricing improves online.
  for (int i = 0; i < 5; ++i) {
    JobRequest req = async_request();
    req.tenant = "t" + std::to_string(i % 2);
    req.epochs = 1;
    sched.submit(req);
  }
  const DrainStats stats = sched.drain();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(sched.feedback().size(), 5u);
  EXPECT_TRUE(est.overlap_model().is_fitted());

  const AdmissionPrice after = sched.price(async_request());
  EXPECT_TRUE(after.overlap_fitted);
  // The consulted ratio is now measured-informed, not Eq. 4's analytic
  // value. (The serial stage seconds move too — the whole corpus refit
  // updates every learned component, which is the point of feedback.)
  EXPECT_NE(after.overlap_ratio, before.overlap_ratio);
}

TEST_F(ServeFeedback, FeedbackReturnsASnapshotNotAnAlias) {
  // Regression: feedback() used to hand back a const reference into
  // mutex-guarded state — the caller's "corpus" silently mutated (or
  // dangled) across the next drain(), which clears and rebuilds
  // feedback_. It now returns a by-value snapshot taken under the lock.
  support::ThreadPool pool(2);
  SchedulerOptions options;
  options.pool = &pool;
  JobScheduler sched(*backend_, *est_, *stats_, options);

  sched.submit(sync_request());
  sched.submit(sync_request());
  ASSERT_EQ(sched.drain().completed, 2u);
  // Binding a reference here is deliberate: against the old aliasing
  // API this reference would observe the second drain's clear+rebuild.
  const auto& first_corpus = sched.feedback();
  ASSERT_EQ(first_corpus.size(), 2u);

  sched.submit(sync_request());
  ASSERT_EQ(sched.drain().completed, 1u);
  // drain() rebuilds feedback_ from every completed job (3 by now); the
  // snapshot taken before must be untouched.
  EXPECT_EQ(first_corpus.size(), 2u);
  EXPECT_EQ(sched.feedback().size(), 3u);
}

// ----------------------------------------------------- navigate-then-train

using ServeNavigate = ServeFixture;

TEST_F(ServeNavigate, NavigateTrainDecidesAndTrainsDeterministically) {
  const dse::DesignSpace space = dse::DesignSpace::reduced(dse::BaseSettings{});
  support::ThreadPool pool(4);
  SchedulerOptions options;
  options.pool = &pool;
  options.max_active = 2;
  JobScheduler sched(*backend_, *est_, *stats_, options, &space);

  JobRequest req;
  req.kind = JobKind::kNavigateTrain;
  req.config = runtime::template_pyg();
  req.config.batch_size = 128;
  req.epochs = 1;
  req.seed = 42;  // identical pinned seed → bit-identical twin reports
  req.targets = dse::targets_balance();
  req.constraints.max_memory_gb = hw_->device.memory_gb;
  const std::size_t first = sched.submit(req);
  const std::size_t second = sched.submit(req);
  const DrainStats stats = sched.drain();
  EXPECT_EQ(stats.completed, 2u);

  const JobOutcome& a = sched.outcome(first);
  const JobOutcome& b = sched.outcome(second);
  ASSERT_EQ(a.state, JobState::kDone);
  ASSERT_EQ(b.state, JobState::kDone);
  EXPECT_EQ(a.decided_config.name, "gnav-balance");
  EXPECT_EQ(a.decided_config.to_config_map().to_guideline_text(),
            b.decided_config.to_config_map().to_guideline_text());
  expect_reports_bit_identical(a.report, b.report);
  EXPECT_FALSE(a.report.epoch_loss.empty());
}

TEST_F(ServeNavigate, NavigateWithoutSpaceIsRejectedAtSubmit) {
  JobScheduler sched(*backend_, *est_, *stats_, SchedulerOptions{});
  JobRequest req;
  req.kind = JobKind::kNavigateTrain;
  req.config = runtime::template_pyg();
  EXPECT_THROW(sched.submit(req), Error);
}

}  // namespace
}  // namespace gnav::serve
