// bench_e2e — the repository's end-to-end benchmark binary.
//
//   bench_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out trace.json] [--commit SHA]
//
// Workloads (bench/e2e/README.md says why each exists):
//   navigate-arxiv        collect -> fit -> navigate -> train, ogbn-arxiv
//   navigate-sweep        LODO estimator fits + 48 guideline queries
//   train-products-async  3 templates x 4 epochs, async executor
//   train-reddit2-lru     2PGraph-style LRU cache, sync executor
//   serve-mixed           16-job drains through serve::JobScheduler
//
// It measures wall clock only, from outside the library: it times
// calls into public functions and never reports the simulated T/Γ of
// hw::CostModel as performance (those enter only the correctness digest).
// One run is: set-up (repeated; setup_s is the median plus the once-only
// part), one untimed warm-up iteration, closed-loop iterations for
// --seconds, then untimed reference runs that check every training report
// bit for bit against the other epoch executor. With --trace 1 the second
// half of the measured time runs with obs tracing on (the Chrome trace
// goes to --trace-out) and the layer probe (probe.hpp) follows.
//
// Prints one JSON object on the last line of stdout; bench/e2e/run.py
// turns it into the benchmark's result line. Exits 1 when a correctness
// check failed, 2 on bad usage or a build without NDEBUG.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "support/parallel.hpp"

#include "probe.hpp"
#include "stats.hpp"
#include "workloads.hpp"

using namespace gnav;
using namespace gnav::bench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "bench_e2e_trace.json";
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "navigate-arxiv") return std::make_unique<NavigateArxiv>();
  if (name == "navigate-sweep") return std::make_unique<NavigateSweep>();
  if (name == "train-products-async") return make_train_products_async();
  if (name == "train-reddit2-lru") return make_train_reddit2_lru();
  if (name == "serve-mixed") return std::make_unique<ServeMixed>();
  return nullptr;
}

/// Runs closed-loop iterations until `seconds` have passed (at least one
/// iteration); returns the loop's wall seconds.
double measure(Workload& w, Context& ctx, double seconds,
               std::vector<OpResult>& ops) {
  const auto t0 = Clock::now();
  do {
    w.iterate(ctx, ops);
  } while (seconds_since(t0) < seconds);
  return seconds_since(t0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "bench_e2e: refusing to measure a build without NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 2;
#endif
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-out FILE] [--commit SHA]\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  for (const char* id : {compute::kBlockedBackendId, compute::kScalarBackendId}) {
    if (!compute::BackendFactory::is_registered(id)) {
      std::fprintf(stderr, "bench_e2e: backend %s is not registered\n", id);
      return 2;
    }
  }

  Context ctx;
  ctx.seed = args.seed;
  ctx.pool = &support::global_pool();  // one pool of nproc threads

  try {
    // Set-up, repeated 3 to 9 times (more while they fit in a second);
    // the last one is kept. setup_s is the median plus the once-only
    // prepare() wall.
    std::vector<double> setup_walls;
    const auto setup_t0 = Clock::now();
    while (setup_walls.size() < 3 ||
           (setup_walls.size() < 9 && seconds_since(setup_t0) < 1.0)) {
      const auto t = Clock::now();
      workload->setup(ctx);
      setup_walls.push_back(seconds_since(t));
    }
    const auto prepare_t0 = Clock::now();
    workload->prepare(ctx);
    const double prepare_s = seconds_since(prepare_t0);

    std::vector<OpResult> warmup;
    workload->iterate(ctx, warmup);

    // The measured phase. A traced run spends half its time untraced
    // (the reference for the tracing overhead) and half traced.
    std::vector<OpResult> ops;
    const double untraced_s = args.trace ? args.seconds / 2.0 : args.seconds;
    const double loop_s = measure(*workload, ctx, untraced_s, ops);
    std::vector<OpResult> traced_ops;
    if (args.trace) {
      obs::set_trace_buffer_capacity(std::size_t{1} << 16);
      obs::set_tracing_enabled(true);
      measure(*workload, ctx, args.seconds / 2.0, traced_ops);
    }

    std::map<std::string, Metric> layers;
    if (args.trace) {
      obs::set_tracing_enabled(false);
      std::ofstream trace_file(args.trace_out);
      obs::write_chrome_trace(trace_file);
      if (!trace_file) {
        std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                     args.trace_out.c_str());
        return 2;
      }
      layers = layer_probe(ctx, workload->probe_spec());
    }
    workload->verify(ctx);

    std::vector<double> op_ms, traced_ms;
    std::size_t failed = 0;
    for (const OpResult& op : ops) {
      op_ms.push_back(1e3 * op.wall_s);
      failed += op.failed ? 1 : 0;
    }
    for (const OpResult& op : traced_ops) {
      traced_ms.push_back(1e3 * op.wall_s);
      failed += op.failed ? 1 : 0;
    }
    const std::size_t attempted = ops.size() + traced_ops.size();

    std::map<std::string, Metric> metrics;
    if (!args.trace) {
      metrics["setup_s"] = {median(setup_walls) + prepare_s, "s",
                            summarize(setup_walls)};
      metrics["prepare_s"] = {prepare_s, "s"};
      metrics["op_p50_ms"] = {median(op_ms), "ms", summarize(op_ms)};
      metrics["op_p90_ms"] = {percentile(op_ms, 0.9), "ms"};
      metrics["ops_per_s"] = {static_cast<double>(ops.size()) / loop_s, "1/s"};
      metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    } else {
      metrics = layers;
      metrics["dse.winner_changes"] = {static_cast<double>(ctx.winner_changes), "count"};
      metrics["obs.trace_dropped_spans"] = {static_cast<double>(obs::trace_dropped_spans()), "count"};
      metrics["obs.tracing_overhead_pct"] = {
          100.0 * (median(traced_ms) / median(op_ms) - 1.0), "%"};
      ctx.check(obs::trace_dropped_spans() == 0, "trace buffers dropped spans");
    }

    Json host;
    host.num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
        .num("pool_threads", static_cast<double>(ctx.pool->size()))
        .str("simd_tier", compute::BackendFactory::create(compute::kBlockedBackendId)
                              ->capabilities()
                              .simd_tier)
        .str("compiler", compiler())
        .str("commit", args.commit)
        .num("seed", static_cast<double>(args.seed));

    Json out;
    out.str("workload", args.workload)
        .obj("host", host)
        .boolean("correct", ctx.failures.empty())
        .num("attempted", static_cast<double>(attempted))
        .num("failed", static_cast<double>(failed))
        .raw("check_failures", Json::list(ctx.failures))
        .raw("op_errors", Json::list(ctx.op_errors))
        .str("loss_digest", workload->loss_digest())
        .num("winner_changes", static_cast<double>(ctx.winner_changes))
        .num("measured_s", loop_s)
        .obj("metrics", metrics_json(metrics))
        .obj("details", workload->details());
    std::printf("%s\n", out.text().c_str());
    std::fflush(stdout);
    for (const std::string& f : ctx.failures) {
      std::fprintf(stderr, "bench_e2e: CHECK FAILED: %s\n", f.c_str());
    }
    return ctx.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
