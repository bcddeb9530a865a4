// gnavigator_cli — command-line front end for the full workflow.
//
//   gnavigator_cli --dataset reddit2 --model sage --hw rtx4090
//                  --priority ex-tm --max-memory-gb 8 --epochs 4
//                  [--corpus corpus.csv] [--save-corpus corpus.csv]
//                  [--pipeline sync|async] [--pipeline-depth N]
//                  [--backend cpu-scalar|cpu-blocked]
//                  [--serve-jobs N] [--serve-tenants N]
//                  [--trace-out trace.json] [--metrics-out metrics.prom]
//
// Runs Step 1 (input analysis), Step 2 (guideline generation — reusing a
// cached profiling corpus when --corpus is given; --save-corpus writes
// the freshly profiled corpus the estimator was fitted on), trains the
// baseline PyG configuration and the generated guideline, and prints
// both, including the epoch executor's measured stage/backpressure
// profile. --pipeline/--pipeline-depth select the epoch executor of
// those two training runs. --backend picks the compute backend of every
// run: profiling, training and serve jobs. The flags are set on each
// run's options; no environment variable or thread-local default
// stands in for them.
//
// --serve-jobs N switches Step 3 into multi-tenant serving: N jobs
// alternating the guideline and the PyG baseline are priced with
// predict_pipelined_wall_s, admitted, and drained through
// serve::JobScheduler under fair-share scheduling with --serve-tenants
// (default 2) concurrently active jobs; per-job price, state and backend
// and the aggregate jobs/min are printed.
//
// --trace-out FILE records every pipeline/cache/serve span of the whole
// invocation and writes Chrome trace-event JSON (load in Perfetto or
// chrome://tracing) at exit; --metrics-out FILE writes the Prometheus
// text exposition of the metrics registry. Either flag alone works.
//
// An unknown flag (e.g. a typo like --epoch) is an error: the CLI exits 1
// listing the flags it knows, before any dataset is loaded. So is a value
// that does not parse, a count (--epochs, --pipeline-depth, --serve-jobs,
// --serve-tenants) below 1 or an --epochs above INT_MAX, a --max-memory-gb
// or --max-epoch-s that is not finite and > 0, a --min-accuracy outside
// (0, 1], and an unknown --priority; every such message names its flag.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "compute/backend.hpp"
#include "estimator/corpus_io.hpp"
#include "obs/export.hpp"
#include "serve/job_scheduler.hpp"
#include "support/error.hpp"
#include "navigator/navigator.hpp"
#include "support/string_utils.hpp"

using namespace gnav;

namespace {

/// Every flag main() reads; parse_args rejects anything else.
constexpr const char* kFlags[] = {
    "backend",       "corpus",         "dataset",       "epochs",
    "hw",            "max-epoch-s",    "max-memory-gb", "metrics-out",
    "min-accuracy",  "model",          "pipeline",      "pipeline-depth",
    "priority",      "save-corpus",    "serve-jobs",    "serve-tenants",
    "trace-out",
};

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (!starts_with(key, "--")) {
      throw Error("expected --flag, got '" + key + "'");
    }
    key = key.substr(2);
    if (std::find(std::begin(kFlags), std::end(kFlags), key) ==
        std::end(kFlags)) {
      std::string known;
      for (const char* flag : kFlags) {
        known += known.empty() ? "--" : ", --";
        known += flag;
      }
      throw Error("unknown flag --" + key + " (known: " + known + ")");
    }
    GNAV_CHECK(i + 1 < argc, "flag --" + key + " needs a value");
    args[key] = argv[++i];
  }
  return args;
}

/// Parses --`name`'s value with `parse`, naming the flag on failure.
template <typename Parse>
auto parse_flag(const std::map<std::string, std::string>& args,
                const std::string& name, Parse parse) {
  try {
    return parse(args.at(name));
  } catch (const Error&) {
    throw Error("--" + name + " must be a number, got '" + args.at(name) +
                "'");
  }
}

/// Reads the count flag --`name` (or `fallback` when absent) and checks
/// 1 <= n <= `max` on the signed value, before any cast: a "-1" must not
/// wrap to SIZE_MAX, nor 4294967297 narrow to 1.
long long count_flag(const std::map<std::string, std::string>& args,
                     const std::string& name, long long fallback,
                     long long max = std::numeric_limits<long long>::max()) {
  const long long n =
      args.contains(name) ? parse_flag(args, name, parse_int) : fallback;
  if (n < 1) {
    throw Error("--" + name + " must be >= 1, got " + std::to_string(n));
  }
  if (n > max) {
    throw Error("--" + name + " must be <= " + std::to_string(max) +
                ", got " + std::to_string(n));
  }
  return n;
}

/// Reads the optional real flag --`name` (nullopt when absent) and checks
/// it is finite and > 0, and also <= 1 when it is a `fraction`.
std::optional<double> positive_flag(
    const std::map<std::string, std::string>& args, const std::string& name,
    bool fraction = false) {
  if (!args.contains(name)) return std::nullopt;
  const double v = parse_flag(args, name, parse_double);
  if (!std::isfinite(v) || v <= 0.0 || (fraction && v > 1.0)) {
    throw Error("--" + name +
                (fraction ? " must be in (0, 1]" : " must be finite and > 0") +
                ", got '" + args.at(name) + "'");
  }
  return v;
}

dse::ExploreTargets priority_by_name(const std::string& name) {
  if (name == "balance" || name == "bal") return dse::targets_balance();
  if (name == "ex-tm") return dse::targets_extreme_time_memory();
  if (name == "ex-ma") return dse::targets_extreme_memory_accuracy();
  if (name == "ex-ta") return dse::targets_extreme_time_accuracy();
  throw Error("--priority: unknown priority '" + name +
              "' (balance | ex-tm | ex-ma | ex-ta)");
}

void print_report(const char* tag, const runtime::TrainReport& r) {
  std::printf("%-12s T=%7.2f s   Mem=%6.2f GB   test-acc=%6.2f%%   "
              "hit=%5.1f%%\n",
              tag, r.epoch_time_s, r.peak_memory_gb,
              100.0 * r.test_accuracy, 100.0 * r.cache_hit_rate);
  const runtime::PipelineReport& p = r.pipeline;
  std::printf("  executor=%s workers=%zu depth=%zu | stage wall s/t/c = "
              "%.3f/%.3f/%.3f s | stalls full=%llu empty=%llu | "
              "queue occ=%.2f\n",
              p.executor.c_str(), p.sampler_workers, p.prefetch_depth,
              p.sample_wall_s, p.transfer_wall_s, p.compute_wall_s,
              static_cast<unsigned long long>(p.push_stalls),
              static_cast<unsigned long long>(p.pop_stalls),
              p.mean_queue_occupancy);
  // Speedup ratios divide by the measured walls; a run that never
  // recorded them (e.g. a corpus row replayed from CSV, or a zero-batch
  // epoch) must not print a fake 1.00x.
  if (p.measured_wall_s > 0.0 && p.measured_sequential_s() > 0.0) {
    std::printf("  overlap: measured %.2fx (efficiency %.0f%%) vs Eq.4 "
                "predicted %.2fx\n",
                p.measured_speedup(), 100.0 * p.overlap_efficiency(),
                p.predicted_speedup());
  } else {
    std::printf("  overlap: n/a (no measured stage walls for this run)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = parse_args(argc, argv);
    const obs::ExportScope telemetry(
        args.contains("trace-out") ? args.at("trace-out") : "",
        args.contains("metrics-out") ? args.at("metrics-out") : "");
    const std::string dataset_name =
        args.contains("dataset") ? args.at("dataset") : "reddit2";
    const std::string hw_name =
        args.contains("hw") ? args.at("hw") : "rtx4090";
    const std::string model_name =
        args.contains("model") ? args.at("model") : "sage";
    const std::string priority_name =
        args.contains("priority") ? args.at("priority") : "balance";
    // Numbers and the priority are checked here, before the dataset
    // loads, so a bad one fails at once instead of after profiling.
    const int epochs = static_cast<int>(
        count_flag(args, "epochs", 4, std::numeric_limits<int>::max()));
    const auto n_jobs =
        static_cast<std::size_t>(count_flag(args, "serve-jobs", 1));
    const auto tenants =
        static_cast<std::size_t>(count_flag(args, "serve-tenants", 2));
    const std::optional<double> max_memory_gb =
        positive_flag(args, "max-memory-gb");
    const std::optional<double> max_epoch_s =
        positive_flag(args, "max-epoch-s");
    const std::optional<double> min_accuracy =
        positive_flag(args, "min-accuracy", /*fraction=*/true);
    const dse::ExploreTargets targets = priority_by_name(priority_name);
    // --backend picks the compute backend for every run below: profiling,
    // the two training runs and the serve jobs. An unknown id fails here,
    // before any dataset loads, with the factory's list of registered ids.
    const std::string backend_id = args.contains("backend")
                                       ? args.at("backend")
                                       : compute::kBlockedBackendId;
    compute::BackendFactory::create(backend_id);
    runtime::RunOptions run_options;
    run_options.epochs = epochs;
    run_options.backend_id = backend_id;
    if (args.contains("pipeline")) {
      run_options.pipeline.mode =
          runtime::pipeline_mode_from_string(args.at("pipeline"));
    }
    if (args.contains("pipeline-depth")) {
      run_options.pipeline.prefetch_depth =
          static_cast<std::size_t>(count_flag(args, "pipeline-depth", 1));
    }

    dse::BaseSettings base;
    base.model = nn::model_kind_from_string(model_name);
    navigator::GNNavigator nav(graph::load_dataset(dataset_name),
                               hw::make_profile(hw_name), base);
    std::printf("input analysis: %s\n",
                nav.dataset_stats().profile.to_string().c_str());

    // Estimator preparation, from a cached corpus or a fresh
    // leave-one-out collection, which --save-corpus writes out.
    std::vector<estimator::ProfiledRun> corpus;
    if (args.contains("corpus")) {
      std::printf("loading profiling corpus from %s...\n",
                  args.at("corpus").c_str());
      corpus = estimator::load_corpus(args.at("corpus"));
    } else {
      std::printf("profiling other datasets (leave-one-out)...\n");
      estimator::CollectorOptions collect;
      collect.configs_per_dataset = 12;
      collect.epochs = 1;
      collect.backend_id = backend_id;
      corpus = estimator::collect_lodo_corpus(graph::dataset_names(),
                                              nav.dataset().name,
                                              /*augmentation_graphs=*/1,
                                              nav.hardware(), collect);
      if (args.contains("save-corpus")) {
        estimator::save_corpus(corpus, args.at("save-corpus"));
        std::printf("corpus saved to %s\n", args.at("save-corpus").c_str());
      }
    }
    nav.prepare(corpus);

    dse::RuntimeConstraints constraints;
    constraints.max_memory_gb =
        max_memory_gb.value_or(nav.hardware().device.memory_gb);
    if (max_epoch_s) constraints.max_epoch_time_s = *max_epoch_s;
    if (min_accuracy) constraints.min_accuracy = *min_accuracy;

    const auto guideline = nav.generate_guideline(targets, constraints);
    std::printf("\ngenerated guideline (%s):\n%s\n", priority_name.c_str(),
                guideline.text.c_str());
    std::printf("explored %zu candidates, pruned %zu subtrees\n",
                guideline.exploration_stats.leaves_evaluated,
                guideline.exploration_stats.subtrees_pruned);
    const estimator::OverlapModel& om = nav.estimator().overlap_model();
    if (om.is_fitted()) {
      std::printf("gray-box overlap: fitted on %zu async corpus rows — "
                  "guideline wall ratio %.2f (Eq.4 analytic %.2f)\n\n",
                  om.training_rows(), guideline.predicted.overlap_ratio,
                  guideline.predicted.overlap_ratio_analytic);
    } else {
      std::printf("gray-box overlap: analytic Eq.4 fallback (corpus has "
                  "no async-executor rows)\n\n");
    }

    runtime::TrainConfig pyg = runtime::template_by_name("pyg");
    pyg.model = base.model;
    pyg.num_layers = base.num_layers;
    pyg.dropout = base.dropout;
    pyg.learning_rate = base.learning_rate;
    pyg.validate();

    if (args.contains("serve-jobs")) {
      serve::SchedulerOptions options;
      options.max_active = tenants;
      serve::JobScheduler sched(nav.backend(), nav.estimator_mut(),
                                nav.dataset_stats(), options);
      for (std::size_t i = 0; i < n_jobs; ++i) {
        serve::JobRequest req;
        req.tenant = "tenant-" + std::to_string(i % tenants);
        req.epochs = epochs;
        req.backend_id = backend_id;
        if (i % 2 == 0) {
          req.config = guideline.config;
          req.pipeline.mode = runtime::PipelineMode::kAsync;
          req.pipeline.prefetch_depth = 2;
          req.pipeline.sampler_workers = 2;
        } else {
          req.config = pyg;
        }
        sched.submit(req);
      }
      const serve::DrainStats stats = sched.drain();
      std::printf("serving %zu job(s) across %zu tenant(s):\n", n_jobs,
                  tenants);
      for (std::size_t i = 0; i < sched.size(); ++i) {
        const serve::JobOutcome& job = sched.outcome(i);
        std::printf("  job %zu [%s] %-16s price=%.3fs (%s) -> %s "
                    "T=%.2fs acc=%.2f%% backend=%s\n",
                    job.id, job.request.tenant.c_str(),
                    job.request.config.name.c_str(),
                    job.price.predicted_wall_s,
                    job.price.overlap_fitted ? "fitted" : "Eq.4",
                    serve::to_string(job.state).c_str(),
                    job.report.epoch_time_s, 100.0 * job.report.test_accuracy,
                    job.report.backend_id.c_str());
      }
      std::printf("drain: %zu started, %zu completed, %zu failed | "
                  "wall=%.2fs throughput=%.1f jobs/min\n",
                  stats.started, stats.completed, stats.failed, stats.wall_s,
                  stats.jobs_per_min());
      return 0;
    }

    print_report("pyg:", nav.backend().run(pyg, run_options));
    print_report("guideline:",
                 nav.backend().run(guideline.config, run_options));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
