// gnav::serve — the multi-tenant navigator service layer.
//
// One process no longer means one training run: a JobScheduler accepts
// many queued navigate+train jobs (the millions-of-users stand-in) and
// runs them over ONE shared thread pool with a bounded number of
// concurrently active jobs. Three ideas make it a *navigator* service
// rather than a plain work queue:
//
//   Admission pricing — every job is priced BEFORE it is admitted with
//   `PerfEstimator::predict_pipelined_wall_s`: the estimator's simulated
//   serial stage seconds for the job's config, multiplied by the
//   predicted wall/serial ratio of the async epoch executor (the fitted
//   overlap correction when the corpus carried measured async rows,
//   Eq. 4's analytic max() otherwise). Jobs whose price exceeds the
//   configured ceiling are rejected at submit time, never queued.
//
//   Fair-share scheduling — each tenant accumulates virtual time
//   (admission price / tenant priority) as its jobs start; the next job
//   to run is always one from the tenant with the least virtual time
//   (ties break toward the lowest job id). The pick sequence is a pure
//   function of the submitted queue — picks are serialized under the
//   scheduler mutex and charged at pick time — so the start order is
//   deterministic no matter which worker becomes free first.
//
//   Online corpus feedback — every completed job's TrainReport becomes a
//   ProfiledRun appended to the feedback corpus (assembled in job-id
//   order, never completion order). With `refit_after_drain` the
//   scheduler refits the caller's estimator on base ∪ feedback at the
//   end of each drain — a deterministic point — so admission pricing
//   improves online without ever racing in-flight price queries.
//
// Isolation contract: a job NEVER reads or mutates process-global
// defaults. Each job carries its own RunOptions — explicit compute
// backend id (pinned per stage thread via compute::BackendScope inside
// the runtime backend), explicit pipeline config — and a deterministic
// per-job seed (`task_seed(scheduler seed, job id)` unless the request
// pins one), so every job's TrainReport is bit-identical to running that
// job alone, even next to a concurrent job on another backend (pinned by
// test_serve.cpp at pool sizes 1/2/8). Admission pricing and navigation
// never look at the backend: the estimator and the DSE do not see it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compute/backend.hpp"
#include "support/thread_safety.hpp"
#include "dse/decision_maker.hpp"
#include "dse/design_space.hpp"
#include "dse/objectives.hpp"
#include "estimator/perf_estimator.hpp"
#include "estimator/profile_collector.hpp"
#include "runtime/backend.hpp"

namespace gnav::serve {

enum class JobKind {
  /// Train the request's config as-is.
  kTrain,
  /// Run DSE first (explorer + decision maker over the scheduler's
  /// design space, seeded with the request's config as a template), then
  /// train the decided guideline. Requires a scheduler built with a
  /// DesignSpace.
  kNavigateTrain,
};

struct JobRequest {
  /// Fair-share accounting bucket; jobs of one tenant share virtual time.
  std::string tenant = "default";
  /// Fair-share weight (> 0); a priority-2 tenant is charged half as much
  /// virtual time per admitted second and so starts ~2x as many jobs.
  double priority = 1.0;
  JobKind kind = JobKind::kTrain;
  /// What to train (kTrain) or the template seeding navigation
  /// (kNavigateTrain) — also what admission pricing evaluates.
  runtime::TrainConfig config;
  int epochs = 2;
  /// 0 derives task_seed(scheduler seed, job id) — deterministic and
  /// decorrelated across jobs; nonzero pins the run seed exactly.
  std::uint64_t seed = 0;
  /// Per-job compute backend. Explicit — never the submitting thread's
  /// BackendScope — so concurrent jobs with different backends cannot
  /// interfere. Validated against BackendFactory::is_registered at submit
  /// time.
  std::string backend_id = compute::kBlockedBackendId;
  /// Per-job epoch executor selection (sync | async, depth, workers).
  runtime::PipelineConfig pipeline;
  bool evaluate_every_epoch = false;
  /// kNavigateTrain only: priorities and constraints of the DSE step.
  dse::ExploreTargets targets = dse::targets_balance();
  dse::RuntimeConstraints constraints;
};

/// What admission pricing computed for a job (see test_serve.cpp: this is
/// pinned to equal PerfEstimator::predict_pipelined_wall_s exactly).
struct AdmissionPrice {
  /// Predicted wall seconds of the whole run (simulated dataset-scale
  /// seconds, the estimator's T domain): serial_stage_s x overlap ratio
  /// for async jobs, serial_stage_s itself for sync jobs.
  double predicted_wall_s = 0.0;
  /// Serial stage seconds over all epochs implied by the estimator's T
  /// (the analytic Eq. 4 overlap divided back out of time_s).
  double serial_stage_s = 0.0;
  /// Predicted wall/serial ratio used (1.0 for sync-executor jobs).
  double overlap_ratio = 1.0;
  /// True when the fitted overlap model (not the Eq. 4 fallback) set the
  /// ratio.
  bool overlap_fitted = false;
};

enum class JobState { kQueued, kRejected, kRunning, kDone, kFailed };
std::string to_string(JobState state);

struct JobOutcome {
  std::size_t id = 0;
  JobRequest request;
  AdmissionPrice price;
  JobState state = JobState::kQueued;
  /// Seed the job actually ran with (request.seed or the derived one).
  std::uint64_t seed = 0;
  /// Position in the deterministic fair-share start sequence.
  std::size_t start_order = 0;
  /// Config that actually trained: request.config for kTrain, the DSE
  /// winner for kNavigateTrain.
  runtime::TrainConfig decided_config;
  /// Wall-clock observables of this job's ride through the scheduler —
  /// measured, NOT part of the bit-identity contract (same class as
  /// DrainStats::wall_s). queue_wait_s: submit → fair-share pick;
  /// run_s: pick → completion (either state).
  double queue_wait_s = 0.0;
  double run_s = 0.0;
  runtime::TrainReport report;  // valid when state == kDone
  std::string error;            // set when state == kFailed

  /// Internal bookkeeping for queue_wait_s (set by submit()).
  std::chrono::steady_clock::time_point submitted_at{};
};

struct SchedulerOptions {
  /// Bound on concurrently running jobs (effective concurrency is
  /// additionally capped by the pool's worker count).
  std::size_t max_active = 2;
  /// Shared pool jobs run on (nullptr → support::global_pool()); a job's
  /// training runs on the lane worker that picked it up.
  support::ThreadPool* pool = nullptr;
  /// Base of the deterministic per-job seeds.
  std::uint64_t seed = 1;
  /// Admission ceiling on predicted_wall_s; 0 disables rejection.
  double max_price_s = 0.0;
  /// Refit the caller's estimator on base_corpus ∪ feedback at the end
  /// of every drain (requires base_corpus; feedback rows alone are
  /// usually too few for PerfEstimator::fit).
  bool refit_after_drain = false;
  const std::vector<estimator::ProfiledRun>* base_corpus = nullptr;
};

/// Totals of one drain() call.
struct DrainStats {
  std::size_t started = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  double jobs_per_min() const {
    return wall_s > 0.0 ? static_cast<double>(completed) * 60.0 / wall_s
                        : 0.0;
  }
};

class JobScheduler {
 public:
  /// `backend`, `est`, and (when given) `space` must outlive the
  /// scheduler; `est` is mutated only by the refit-after-drain path.
  /// `space == nullptr` disables kNavigateTrain jobs.
  JobScheduler(const runtime::RuntimeBackend& backend,
               estimator::PerfEstimator& est, estimator::DatasetStats stats,
               SchedulerOptions options,
               const dse::DesignSpace* space = nullptr);

  /// Pure admission pricing of a request (what submit() consults).
  /// Thread-safe against concurrent submits and against drain's refit.
  AdmissionPrice price(const JobRequest& request) const
      GNAV_EXCLUDES(mutex_);

  /// Prices and enqueues (or rejects) the job; returns its id.
  /// Thread-safe.
  std::size_t submit(JobRequest request) GNAV_EXCLUDES(mutex_);

  /// Runs every queued job under fair-share order with at most
  /// max_active concurrently active jobs on the shared pool; blocks
  /// until the queue drains, then assembles the feedback corpus (job-id
  /// order) and, when configured, refits the estimator.
  DrainStats drain() GNAV_EXCLUDES(mutex_);

  std::size_t size() const GNAV_EXCLUDES(mutex_);
  /// Snapshot of one job's outcome, BY VALUE. Stable once drain()
  /// returned (do not call mid-drain for running jobs). This used to
  /// return `const JobOutcome&` into the mutex-guarded `jobs_` storage —
  /// the same guarded-ref-escape class as the old feedback() accessor
  /// below: a live alias a later submit/drain could invalidate or
  /// rewrite under the caller.
  JobOutcome outcome(std::size_t id) const GNAV_EXCLUDES(mutex_);

  /// Completed jobs as estimator corpus rows, job-id order. Rebuilt at
  /// the end of every drain. BY VALUE: this used to hand out
  /// `const std::vector&` into mutex-guarded state — a live alias the
  /// next drain silently rewrote under the caller (the same hazard class
  /// as the DeviceCache accessor aliasing fixed in an earlier PR, and
  /// exactly what the thread-safety annotations flag: a guarded field
  /// escaping its capability).
  std::vector<estimator::ProfiledRun> feedback() const
      GNAV_EXCLUDES(mutex_);

 private:
  struct Tenant {
    double virtual_s = 0.0;
    double priority = 1.0;
  };

  AdmissionPrice price_locked(const JobRequest& request) const
      GNAV_REQUIRES(mutex_);
  /// Fair-share pick: dequeues the job of the least-virtual-time tenant,
  /// charges the tenant, marks it running. Returns nullptr when empty.
  JobOutcome* pick_next_locked() GNAV_REQUIRES(mutex_);
  void worker_loop() GNAV_EXCLUDES(mutex_);
  /// Runs WITHOUT the scheduler mutex: between pick (state -> kRunning)
  /// and completion, the picked JobOutcome is exclusively owned by the
  /// lane running it — nothing else may touch a kRunning outcome (which
  /// is why outcome() documents "not mid-drain" for running jobs).
  void run_job(JobOutcome& job) GNAV_EXCLUDES(mutex_);

  const runtime::RuntimeBackend* backend_;
  estimator::PerfEstimator* estimator_;
  estimator::DatasetStats stats_;
  SchedulerOptions options_;
  const dse::DesignSpace* space_;

  /// Guards the scheduler bookkeeping AND serializes estimator access
  /// (price queries vs the drain-end refit).
  mutable support::Mutex mutex_;
  /// unique_ptr elements so a lane's JobOutcome* survives concurrent
  /// submit() reallocation of the vector itself.
  std::vector<std::unique_ptr<JobOutcome>> jobs_ GNAV_GUARDED_BY(mutex_);
  std::vector<std::size_t> queue_ GNAV_GUARDED_BY(mutex_);  // queued ids
  std::map<std::string, Tenant> tenants_ GNAV_GUARDED_BY(mutex_);
  std::size_t starts_ GNAV_GUARDED_BY(mutex_) = 0;
  std::vector<estimator::ProfiledRun> feedback_ GNAV_GUARDED_BY(mutex_);
};

}  // namespace gnav::serve
