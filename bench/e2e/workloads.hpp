// The five bench_e2e workloads. Each one builds its inputs in setup(),
// then runs closed-loop iterations of one or more operations; bench_e2e.cpp
// times them from outside. Every call into the library is wrapped in a
// "bench" trace span named after the layer it enters, so a traced run
// attributes wall time to layers without any span inside src/.
//
// The four dataset analogues are fixed inputs, as real datasets are
// (graph::load_dataset's default seed). The workload seed generates the
// power-law augmentation graphs and every run, job and batch seed.
#pragma once

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "compute/backend.hpp"
#include "dse/decision_maker.hpp"
#include "dse/design_space.hpp"
#include "dse/explorer.hpp"
#include "estimator/dataset_stats.hpp"
#include "estimator/perf_estimator.hpp"
#include "estimator/profile_collector.hpp"
#include "graph/dataset.hpp"
#include "hw/platform.hpp"
#include "navigator/navigator.hpp"
#include "obs/trace.hpp"
#include "runtime/backend.hpp"
#include "runtime/templates.hpp"
#include "serve/job_scheduler.hpp"
#include "support/parallel.hpp"

#include "stats.hpp"

namespace gnav::bench {

/// Shared state of one benchmark process: the pool every layer runs on,
/// the checks that failed, and the per-run correctness bookkeeping.
struct Context {
  std::uint64_t seed = 7;
  support::ThreadPool* pool = nullptr;
  hw::HardwareProfile hw = hw::make_profile("rtx4090");
  /// Failed correctness checks (the run is wrong) and operations that
  /// threw (counted as failed operations).
  std::vector<std::string> failures;
  std::vector<std::string> op_errors;
  std::size_t winner_changes = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  /// Seed of every profiling-corpus draw (the CLI's default). It is not
  /// derived from the workload seed: the random configs a corpus profiles
  /// differ several-fold in cost, so a per-seed draw would make the
  /// workload's work, not the code's speed, vary between seeds.
  static constexpr std::uint64_t kCollectorSeed = 99;

  /// Seed for a derived purpose (run k, job slot k).
  std::uint64_t derive(std::uint64_t purpose) const {
    return support::task_seed(seed, purpose);
  }
};

inline runtime::PipelineConfig sync_executor() {
  return {runtime::PipelineMode::kSync, 4, 0};
}
inline runtime::PipelineConfig async_executor(std::size_t depth,
                                              std::size_t workers) {
  return {runtime::PipelineMode::kAsync, depth, workers};
}
/// The executor a reference run uses: the other one.
inline runtime::PipelineConfig other_executor(
    const runtime::PipelineConfig& p) {
  return p.mode == runtime::PipelineMode::kSync ? async_executor(4, 2)
                                                : sync_executor();
}

inline runtime::RunOptions run_options(const Context& ctx, int epochs,
                                       std::uint64_t seed,
                                       runtime::PipelineConfig pipe,
                                       const std::string& backend_id =
                                           compute::kBlockedBackendId) {
  runtime::RunOptions ro;
  ro.epochs = epochs;
  ro.seed = seed;
  ro.pool = ctx.pool;
  ro.backend_id = backend_id;
  ro.pipeline = pipe;
  return ro;
}

/// A profiling corpus of `configs` random configs, 1 epoch each, on the
/// shared pool. `async_every` as in CollectorOptions (4 is its default).
inline estimator::CollectorOptions corpus_options(const Context& ctx,
                                                  int configs,
                                                  int async_every = 4) {
  estimator::CollectorOptions opts;
  opts.configs_per_dataset = configs;
  opts.epochs = 1;
  opts.seed = Context::kCollectorSeed;
  opts.async_every = async_every;
  opts.pool = ctx.pool;
  opts.backend_id = compute::kBlockedBackendId;
  return opts;
}

inline runtime::TrainConfig with_base(runtime::TrainConfig c,
                                      const dse::BaseSettings& base) {
  c.model = base.model;
  c.num_layers = base.num_layers;
  c.dropout = base.dropout;
  c.learning_rate = base.learning_rate;
  c.validate();
  return c;
}

/// The 2PGraph-style dynamic-cache config: LRU cache over 30% of the
/// vertices, cache-aware bias, small batches, INT8 feature compression.
inline runtime::TrainConfig lru_2pgraph_config() {
  runtime::TrainConfig c = runtime::template_pyg();
  c.name = "2pgraph-lru";
  c.batch_size = 256;
  c.cache_ratio = 0.3;
  c.cache_policy = cache::CachePolicy::kLru;
  c.bias_rate = 0.7;
  c.compress_features = true;
  c.validate();
  return c;
}

inline bool valid_config(const runtime::TrainConfig& c) {
  try {
    c.validate();
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

inline bool finite_prediction(const estimator::PerfPrediction& p) {
  return std::isfinite(p.time_s) && std::isfinite(p.memory_gb) &&
         std::isfinite(p.accuracy);
}

/// Records every timed training run and checks it against the first run
/// of the same config and seed: the data-bearing fields must not change
/// from one iteration to the next.
class TrainLedger {
 public:
  struct Entry {
    runtime::TrainConfig config;
    runtime::RunOptions options;
    runtime::TrainReport report;
  };

  void record(Context& ctx, const runtime::TrainConfig& config,
              const runtime::RunOptions& options,
              const runtime::TrainReport& report) {
    const std::string key =
        config.summary() + "|" + std::to_string(options.seed);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      index_.emplace(key, entries_.size());
      entries_.push_back({config, options, report});
      return;
    }
    ctx.check(same_data(entries_[it->second].report, report),
              "run " + config.name + " seed " + std::to_string(options.seed) +
                  " changed between iterations");
  }

  /// Re-runs every recorded (config, seed) under the other executor and
  /// checks the reports are bit-identical. Untimed.
  void verify_executors(Context& ctx,
                        const runtime::RuntimeBackend& backend) const {
    for (const Entry& e : entries_) {
      runtime::RunOptions ro = e.options;
      ro.pipeline = other_executor(e.options.pipeline);
      const runtime::TrainReport ref = backend.run(e.config, ro);
      ctx.check(same_data(ref, e.report),
                "run " + e.config.name + " differs between sync and async "
                "executors");
    }
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::map<std::string, std::size_t> index_;
  std::vector<Entry> entries_;
};

/// One operation's measured wall, plus whether it failed.
struct OpResult {
  double wall_s = 0.0;
  bool failed = false;
};

/// What the layer probe replays: a dataset, the workload's primary
/// training config and the executor it runs under.
struct ProbeSpec {
  const graph::Dataset* dataset = nullptr;
  runtime::TrainConfig config;
  runtime::PipelineConfig pipeline;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs. Called several times; each call replaces the
  /// previous inputs.
  virtual void setup(Context& ctx) = 0;
  /// Set-up work too costly to repeat (a profiling corpus and the
  /// estimator fitted on it), done once after the last setup(). setup_s
  /// is the median setup() wall plus this one's.
  virtual void prepare(Context&) {}
  /// One closed-loop iteration: appends one entry per operation.
  virtual void iterate(Context& ctx, std::vector<OpResult>& ops) = 0;
  /// Untimed correctness checks after the measured iterations.
  virtual void verify(Context& ctx) = 0;
  /// Hash of every loss the workload's deterministic runs produced.
  virtual std::string loss_digest() const = 0;
  virtual ProbeSpec probe_spec() const = 0;
  /// Workload-specific details (stage walls, throughput in the
  /// workload's own unit) for the detail record.
  virtual Json details() const = 0;
};

// --------------------------------------------------------------------
// navigate-arxiv: the gnavigator_cli workflow on ogbn-arxiv with GCN.

class NavigateArxiv final : public Workload {
 public:
  void setup(Context& ctx) override {
    sources_.clear();
    for (const std::string& name : graph::dataset_names()) {
      if (name != kHeldOut) {
        GNAV_TRACE_SPAN("bench", "graph.load_dataset");
        sources_.push_back(graph::load_dataset(name));
      }
    }
    {
      GNAV_TRACE_SPAN("bench", "graph.power_law_aug");
      sources_.push_back(
          graph::make_power_law_augmentation(0, ctx.seed + 0xABCDULL));
    }
    GNAV_TRACE_SPAN("bench", "graph.load_dataset");
    nav_ = std::make_unique<navigator::GNNavigator>(
        graph::load_dataset(kHeldOut), ctx.hw, base());
  }

  void iterate(Context& ctx, std::vector<OpResult>& ops) override {
    const auto t0 = Clock::now();
    try {
      // Step 2a: leave-one-dataset-out profiling, 6 configs per other
      // dataset and 3 on the power-law graph: prepare_default(6, 1, 1),
      // half the CLI's corpus, so that a run holds enough workflows for
      // a steady median.
      std::vector<estimator::ProfiledRun> corpus;
      auto t = Clock::now();
      for (std::size_t i = 0; i < sources_.size(); ++i) {
        GNAV_TRACE_SPAN("bench", "estimator.collect_profiles");
        auto rows = estimator::collect_profiles(
            sources_[i], ctx.hw,
            corpus_options(ctx, i + 1 < sources_.size() ? 6 : 3));
        corpus.insert(corpus.end(), rows.begin(), rows.end());
      }
      collect_s_.push_back(seconds_since(t));
      Digest corpus_digest;
      for (const auto& row : corpus) corpus_digest.add(row.report.epoch_loss);
      if (corpus_digest_.empty()) corpus_digest_ = corpus_digest.hex();
      ctx.check(corpus_digest.hex() == corpus_digest_,
                "profiling corpus changed between iterations");

      t = Clock::now();
      {
        GNAV_TRACE_SPAN("bench", "estimator.fit");
        nav_->prepare(corpus);
      }
      fit_s_.push_back(seconds_since(t));

      t = Clock::now();
      dse::RuntimeConstraints constraints;
      constraints.max_memory_gb = ctx.hw.device.memory_gb;
      navigator::Guideline g;
      {
        GNAV_TRACE_SPAN("bench", "navigator.generate_guideline");
        g = nav_->generate_guideline(dse::targets_balance(), constraints);
      }
      navigate_s_.push_back(seconds_since(t));
      ctx.check(valid_config(g.config) && finite_prediction(g.predicted),
                "navigate-arxiv guideline is invalid or has a non-finite "
                "prediction");
      if (!first_winner_) {
        first_winner_ = std::make_unique<runtime::TrainConfig>(g.config);
      } else if (!(g.config == *first_winner_)) {
        ctx.winner_changes += 1;
      }

      // Step 3: train the PyG baseline and the guideline, 4 epochs each.
      t = Clock::now();
      const runtime::TrainConfig pyg =
          with_base(runtime::template_pyg(), base());
      for (const runtime::TrainConfig* config :
           {&pyg, static_cast<const runtime::TrainConfig*>(&g.config)}) {
        const runtime::RunOptions ro =
            run_options(ctx, 4, ctx.derive(2), sync_executor());
        GNAV_TRACE_SPAN("bench", "runtime.run");
        ledger_.record(ctx, *config, ro, nav_->backend().run(*config, ro));
      }
      train_s_.push_back(seconds_since(t));
      ops.push_back({seconds_since(t0), false});
    } catch (const std::exception& e) {
      ctx.op_errors.push_back(std::string("navigate-arxiv op threw: ") +
                             e.what());
      ops.push_back({seconds_since(t0), true});
    }
  }

  void verify(Context& ctx) override {
    ledger_.verify_executors(ctx, nav_->backend());
  }

  std::string loss_digest() const override {
    // The guideline depends on measured walls through the fitted overlap
    // model, so only the corpus and the PyG baseline are deterministic.
    Digest d;
    for (const auto& e : ledger_.entries()) {
      if (e.config.name == "pyg") d.add(e.report.epoch_loss);
    }
    return corpus_digest_ + d.hex();
  }

  ProbeSpec probe_spec() const override {
    return {&nav_->dataset(), with_base(runtime::template_pyg(), base()),
            sync_executor()};
  }

  Json details() const override {
    Json j;
    j.num("collect_s", median(collect_s_))
        .num("fit_s", median(fit_s_))
        .num("navigate_s", median(navigate_s_))
        .num("train_s", median(train_s_));
    return j;
  }

 private:
  static constexpr const char* kHeldOut = "ogbn-arxiv";
  static dse::BaseSettings base() {
    dse::BaseSettings b;
    b.model = nn::ModelKind::kGcn;
    return b;
  }

  std::vector<graph::Dataset> sources_;
  std::unique_ptr<navigator::GNNavigator> nav_;
  std::unique_ptr<runtime::TrainConfig> first_winner_;
  TrainLedger ledger_;
  std::string corpus_digest_;
  std::vector<double> collect_s_, fit_s_, navigate_s_, train_s_;
};

// --------------------------------------------------------------------
// navigate-sweep: estimator fits and guideline queries, no training.

class NavigateSweep final : public Workload {
 public:
  void setup(Context& ctx) override {
    sources_.clear();
    stats_.clear();
    for (const std::string& name : graph::dataset_names()) {
      GNAV_TRACE_SPAN("bench", "graph.load_dataset");
      sources_.push_back(graph::load_dataset(name));
    }
    for (int i = 0; i < kAugGraphs; ++i) {
      GNAV_TRACE_SPAN("bench", "graph.power_law_aug");
      sources_.push_back(
          graph::make_power_law_augmentation(i, ctx.seed + 0xABCDULL));
    }
    for (std::size_t d = 0; d < kDatasets; ++d) {
      GNAV_TRACE_SPAN("bench", "estimator.dataset_stats");
      stats_.push_back(estimator::compute_dataset_stats(sources_[d]));
    }
  }

  // The --save-corpus use: profile every source once, then answer
  // queries from estimators fitted on leave-one-out slices of it.
  void prepare(Context& ctx) override {
    rows_.clear();
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      GNAV_TRACE_SPAN("bench", "estimator.collect_profiles");
      rows_.push_back(estimator::collect_profiles(
          sources_[i], ctx.hw, corpus_options(ctx, i < kDatasets ? 8 : 4)));
    }
  }

  void iterate(Context& ctx, std::vector<OpResult>& ops) override {
    const dse::ExploreTargets priorities[] = {
        dse::targets_balance(), dse::targets_extreme_time_memory(),
        dse::targets_extreme_memory_accuracy(),
        dse::targets_extreme_time_accuracy()};
    // One entry per query; a query that threw has none.
    std::vector<std::optional<runtime::TrainConfig>> winners;
    for (std::size_t d = 0; d < kDatasets; ++d) {
      std::vector<estimator::ProfiledRun> corpus;
      for (std::size_t i = 0; i < rows_.size(); ++i) {
        if (i != d) corpus.insert(corpus.end(), rows_[i].begin(), rows_[i].end());
      }
      estimator::PerfEstimator est(ctx.hw);
      auto t = Clock::now();
      {
        GNAV_TRACE_SPAN("bench", "estimator.fit");
        est.fit(corpus);
      }
      fit_s_.push_back(seconds_since(t));
      const dse::DesignSpace space = dse::DesignSpace::full(dse::BaseSettings{});
      for (const dse::ExploreTargets& targets : priorities) {
        for (double budget : kBudgetsGb[d]) {
          t = Clock::now();
          try {
            dse::RuntimeConstraints constraints;
            constraints.max_memory_gb = budget;
            dse::Explorer explorer(space, est, stats_[d]);
            explorer.set_pool(ctx.pool);
            dse::ExplorationResult result;
            {
              GNAV_TRACE_SPAN("bench", "dse.explore");
              result = explorer.explore(constraints, runtime::all_templates());
            }
            dse::Decision decision;
            {
              GNAV_TRACE_SPAN("bench", "dse.decide");
              decision = dse::DecisionMaker(targets).decide(result);
            }
            ops.push_back({seconds_since(t), false});
            ctx.check(valid_config(decision.chosen.config) &&
                          finite_prediction(decision.chosen.predicted),
                      "navigate-sweep guideline is invalid or has a "
                      "non-finite prediction");
            leaves_ += result.stats.leaves_evaluated;
            pruned_ += result.stats.subtrees_pruned;
            winners.push_back(decision.chosen.config);
          } catch (const std::exception& e) {
            ctx.op_errors.push_back(std::string("navigate-sweep query threw: ") +
                                   e.what());
            ops.push_back({seconds_since(t), true});
            winners.emplace_back();
          }
        }
      }
    }
    // Fits and queries are pure functions of the fixed corpus: every
    // query must decide exactly what it decided the first time it
    // succeeded.
    first_winners_.resize(winners.size());
    for (std::size_t q = 0; q < winners.size(); ++q) {
      if (!winners[q]) continue;
      if (!first_winners_[q]) {
        first_winners_[q] = winners[q];
      } else if (!(*winners[q] == *first_winners_[q])) {
        ctx.winner_changes += 1;
      }
    }
  }

  void verify(Context& ctx) override {
    ctx.check(ctx.winner_changes == 0,
              "navigate-sweep decisions changed between iterations");
  }

  std::string loss_digest() const override {
    Digest d;
    for (const auto& rows : rows_) {
      for (const auto& row : rows) d.add(row.report.epoch_loss);
    }
    return d.hex();
  }

  ProbeSpec probe_spec() const override {
    return {&sources_[0], runtime::template_pyg(), sync_executor()};
  }

  Json details() const override {
    Json j;
    j.num("fit_s", median(fit_s_))
        .num("leaves_evaluated", static_cast<double>(leaves_))
        .num("subtrees_pruned", static_cast<double>(pruned_));
    return j;
  }

 private:
  static constexpr std::size_t kDatasets = 4;  // graph::dataset_names()
  static constexpr int kAugGraphs = 2;
  // Per-dataset device-memory budgets (GB): the device's own 24 GB and
  // two budgets under which the explorer prunes the large-cache subtrees
  // (its bound is 0.55 GB + the cache) while configs without a cache,
  // predicted at 0.54-0.64 GB over seeds 1-10, stay feasible. On
  // ogbn-arxiv even a 50% cache costs under 0.6 GB, so no budget that
  // stays feasible prunes there.
  static constexpr double kBudgetsGb[kDatasets][3] = {
      {24.0, 0.70, 0.65}, {24.0, 1.0, 0.75}, {24.0, 0.8, 0.68},
      {24.0, 0.8, 0.68}};

  std::vector<graph::Dataset> sources_;
  std::vector<estimator::DatasetStats> stats_;
  std::vector<std::vector<estimator::ProfiledRun>> rows_;
  std::vector<std::optional<runtime::TrainConfig>> first_winners_;
  std::vector<double> fit_s_;
  std::size_t leaves_ = 0;
  std::size_t pruned_ = 0;
};

// --------------------------------------------------------------------
// train-products-async / train-reddit2-lru: training runs only.

class TrainWorkload final : public Workload {
 public:
  TrainWorkload(std::string dataset, std::vector<runtime::TrainConfig> configs,
                runtime::PipelineConfig pipeline)
      : dataset_name_(std::move(dataset)),
        configs_(std::move(configs)),
        pipeline_(pipeline) {}

  void setup(Context& ctx) override {
    backend_.reset();
    {
      GNAV_TRACE_SPAN("bench", "graph.load_dataset");
      dataset_ = std::make_unique<graph::Dataset>(
          graph::load_dataset(dataset_name_));
    }
    backend_ = std::make_unique<runtime::RuntimeBackend>(*dataset_, ctx.hw);
  }

  /// One operation is one round: a training run of every config in turn.
  /// The configs differ several-fold in cost, so a median over single
  /// runs would pick one config's cluster by the round count's parity.
  void iterate(Context& ctx, std::vector<OpResult>& ops) override {
    const auto t_round = Clock::now();
    bool failed = false;
    for (std::size_t k = 0; k < configs_.size(); ++k) {
      const runtime::RunOptions ro =
          run_options(ctx, kEpochs, ctx.derive(10 + k), pipeline_);
      const auto t = Clock::now();
      try {
        runtime::TrainReport report;
        {
          GNAV_TRACE_SPAN("bench", "runtime.run");
          report = backend_->run(configs_[k], ro);
        }
        run_wall_s_ += seconds_since(t);
        seeds_trained_ += static_cast<double>(kEpochs) *
                          static_cast<double>(dataset_->train_nodes.size());
        loop_wall_s_ += report.pipeline.measured_wall_s;
        batches_ += static_cast<double>(kEpochs) *
                    static_cast<double>(report.iterations_per_epoch);
        ledger_.record(ctx, configs_[k], ro, report);
      } catch (const std::exception& e) {
        ctx.op_errors.push_back(std::string("training run threw: ") + e.what());
        failed = true;
      }
    }
    ops.push_back({seconds_since(t_round), failed});
  }

  void verify(Context& ctx) override {
    ledger_.verify_executors(ctx, *backend_);
  }

  std::string loss_digest() const override {
    Digest d;
    for (const auto& e : ledger_.entries()) d.add(e.report.epoch_loss);
    return d.hex();
  }

  ProbeSpec probe_spec() const override {
    return {dataset_.get(), configs_.front(), pipeline_};
  }

  Json details() const override {
    Json j;
    j.num("train_nodes_per_s",
          run_wall_s_ > 0.0 ? seeds_trained_ / run_wall_s_ : 0.0)
        .num("loop_wall_ms_per_batch",
             batches_ > 0.0 ? 1e3 * loop_wall_s_ / batches_ : 0.0);
    return j;
  }

 private:
  static constexpr int kEpochs = 4;
  std::string dataset_name_;
  std::vector<runtime::TrainConfig> configs_;
  runtime::PipelineConfig pipeline_;
  std::unique_ptr<graph::Dataset> dataset_;
  std::unique_ptr<runtime::RuntimeBackend> backend_;
  TrainLedger ledger_;
  double seeds_trained_ = 0.0;
  double run_wall_s_ = 0.0;
  double loop_wall_s_ = 0.0;
  double batches_ = 0.0;
};

inline std::unique_ptr<Workload> make_train_products_async() {
  return std::make_unique<TrainWorkload>(
      "ogbn-products",
      std::vector<runtime::TrainConfig>{runtime::template_pagraph_full(),
                                        runtime::template_fastgcn(),
                                        runtime::template_graphsaint()},
      async_executor(4, 2));
}

inline std::unique_ptr<Workload> make_train_reddit2_lru() {
  return std::make_unique<TrainWorkload>(
      "reddit2", std::vector<runtime::TrainConfig>{lru_2pgraph_config()},
      sync_executor());
}

// --------------------------------------------------------------------
// serve-mixed: repeated drains of a fixed 16-job mix through one
// JobScheduler configuration on a shared pool.

/// Samples ThreadPool::pending() every millisecond while alive.
class PendingProbe {
 public:
  explicit PendingProbe(support::ThreadPool& pool)
      : thread_([this, &pool] {
          while (!done_.load(std::memory_order_relaxed)) {
            const std::size_t p = pool.pending();
            if (p > peak_) peak_ = p;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  ~PendingProbe() { stop(); }
  PendingProbe(const PendingProbe&) = delete;
  PendingProbe& operator=(const PendingProbe&) = delete;

  std::size_t stop() {
    done_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    return peak_;
  }

 private:
  std::atomic<bool> done_{false};
  std::size_t peak_ = 0;  // written by thread_ only until joined
  std::thread thread_;
};

class ServeMixed final : public Workload {
 public:
  void setup(Context& ctx) override {
    est_.reset();
    backend_.reset();
    {
      GNAV_TRACE_SPAN("bench", "graph.load_dataset");
      dataset_ = std::make_unique<graph::Dataset>(
          graph::load_dataset("ogbn-arxiv"));
    }
    backend_ = std::make_unique<runtime::RuntimeBackend>(*dataset_, ctx.hw);
    stats_ = estimator::compute_dataset_stats(*dataset_);
  }

  void prepare(Context& ctx) override {
    std::vector<estimator::ProfiledRun> corpus;
    {
      GNAV_TRACE_SPAN("bench", "estimator.collect_profiles");
      corpus = estimator::collect_profiles(*dataset_, ctx.hw,
                                           corpus_options(ctx, 10, 2));
    }
    est_ = std::make_unique<estimator::PerfEstimator>(ctx.hw);
    GNAV_TRACE_SPAN("bench", "estimator.fit");
    est_->fit(corpus);
  }

  void iterate(Context& ctx, std::vector<OpResult>& ops) override {
    serve::SchedulerOptions options;
    options.max_active = kLanes;
    options.pool = ctx.pool;
    options.seed = ctx.derive(3);
    serve::JobScheduler sched(*backend_, *est_, stats_, options, &space_);
    const std::vector<serve::JobRequest> mix = job_mix(ctx);
    for (int copy = 0; copy < kCopies; ++copy) {
      for (const serve::JobRequest& req : mix) sched.submit(req);
    }
    PendingProbe pending(*ctx.pool);
    serve::DrainStats stats;
    {
      GNAV_TRACE_SPAN("bench", "serve.drain");
      stats = sched.drain();
    }
    peak_pending_ = std::max(peak_pending_, pending.stop());
    drain_wall_s_ += stats.wall_s;

    for (std::size_t id = 0; id < sched.size(); ++id) {
      const serve::JobOutcome job = sched.outcome(id);
      const bool failed = job.state != serve::JobState::kDone;
      if (failed) {
        ctx.op_errors.push_back("serve job " + std::to_string(id) + " ended " +
                               serve::to_string(job.state) + " " + job.error);
      }
      ops.push_back({job.queue_wait_s + job.run_s, failed});
      queue_wait_s_.push_back(job.queue_wait_s);
      run_s_.push_back(job.run_s);
      if (failed) continue;
      // Every copy of a mix slot runs the same pinned seed: its report
      // and decided config must match the slot's first run bit for bit.
      std::optional<serve::JobOutcome>& first = first_[id % kSlots];
      if (!first) {
        first = job;
      } else {
        ctx.check(same_data(first->report, job.report) &&
                      first->decided_config == job.decided_config,
                  "serve slot " + std::to_string(id % kSlots) +
                      " produced a different report");
      }
    }
  }

  void verify(Context& ctx) override {
    for (const std::optional<serve::JobOutcome>& first : first_) {
      if (!first) continue;
      const serve::JobOutcome& job = *first;
      runtime::RunOptions ro =
          run_options(ctx, job.request.epochs, job.seed,
                      other_executor(job.request.pipeline),
                      job.request.backend_id);
      ro.evaluate_every_epoch = job.request.evaluate_every_epoch;
      ro.record_batch_sizes = true;
      ctx.check(same_data(backend_->run(job.decided_config, ro), job.report),
                "serve job " + job.request.config.name +
                    " differs from its reference run");
    }
  }

  std::string loss_digest() const override {
    // Navigate slots decide from an estimator whose overlap model is fit
    // on measured walls; only the fixed-config slots are deterministic.
    Digest d;
    for (const std::optional<serve::JobOutcome>& job : first_) {
      if (job && job->request.kind == serve::JobKind::kTrain) {
        d.add(job->report.epoch_loss);
      }
    }
    return d.hex();
  }

  ProbeSpec probe_spec() const override {
    return {dataset_.get(), runtime::template_pyg(), sync_executor()};
  }

  Json details() const override {
    std::vector<double> latency;
    for (std::size_t i = 0; i < run_s_.size(); ++i) {
      latency.push_back(queue_wait_s_[i] + run_s_[i]);
    }
    double run_sum = 0.0;
    for (double r : run_s_) run_sum += r;
    Json j;
    j.num("jobs_per_min",
          drain_wall_s_ > 0.0
              ? 60.0 * static_cast<double>(run_s_.size()) / drain_wall_s_
              : 0.0)
        .num("job_latency_p50_s", median(latency))
        .num("job_latency_p80_s", percentile(latency, 0.8))
        .num("queue_wait_p50_s", median(queue_wait_s_))
        .num("run_p50_s", median(run_s_))
        .num("lane_busy_share",
             drain_wall_s_ > 0.0 ? run_sum / (kLanes * drain_wall_s_) : 0.0)
        .num("pool_peak_pending", static_cast<double>(peak_pending_));
    return j;
  }

 private:
  static constexpr int kCopies = 2;
  static constexpr std::size_t kSlots = 8;
  static constexpr std::size_t kLanes = 2;  // SchedulerOptions::max_active

  /// The 8-slot mix: executors, backends and samplers the serve layer
  /// must isolate from each other on one pool. Tenant 3 has priority 2.
  std::vector<serve::JobRequest> job_mix(const Context& ctx) const {
    std::vector<serve::JobRequest> mix(kSlots);
    mix[0].config = runtime::template_pyg();
    mix[1].config = runtime::template_pagraph_full();
    mix[1].pipeline = async_executor(2, 1);
    mix[2].config = runtime::template_fastgcn();
    mix[2].backend_id = compute::kScalarBackendId;
    mix[3].config = lru_2pgraph_config();
    mix[3].pipeline = async_executor(2, 1);  // biased: chained producer
    mix[4].kind = serve::JobKind::kNavigateTrain;
    mix[4].config = runtime::template_pyg();
    mix[5].kind = serve::JobKind::kNavigateTrain;
    mix[5].config = runtime::template_pagraph_low();
    mix[5].targets = dse::targets_extreme_time_memory();
    mix[6].config = runtime::template_graphsaint();
    mix[7].config = runtime::template_pyg();
    mix[7].pipeline = async_executor(4, 2);
    for (std::size_t slot = 0; slot < mix.size(); ++slot) {
      serve::JobRequest& r = mix[slot];
      r.config.batch_size = 256;
      r.config.validate();
      r.epochs = 2;
      r.seed = ctx.derive(100 + slot);
      r.tenant = "tenant-" + std::to_string(slot % 4);
      r.priority = slot % 4 == 3 ? 2.0 : 1.0;
      r.constraints.max_memory_gb = ctx.hw.device.memory_gb;
    }
    return mix;
  }

  std::unique_ptr<graph::Dataset> dataset_;
  std::unique_ptr<runtime::RuntimeBackend> backend_;
  estimator::DatasetStats stats_;
  std::unique_ptr<estimator::PerfEstimator> est_;
  const dse::DesignSpace space_ = dse::DesignSpace::full(dse::BaseSettings{});
  /// The first completed run of each mix slot.
  std::vector<std::optional<serve::JobOutcome>> first_ =
      std::vector<std::optional<serve::JobOutcome>>(kSlots);
  std::vector<double> queue_wait_s_, run_s_;
  double drain_wall_s_ = 0.0;
  std::size_t peak_pending_ = 0;
};

}  // namespace gnav::bench
