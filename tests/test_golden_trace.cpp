// End-to-end GNNavigator golden-trace regression.
//
// For two small registry datasets the full paper pipeline is executed —
// Step 1 profile a leave-one-out corpus, Step 2 fit the estimator /
// explore / decide, Step 3 train under the chosen guideline — and the
// chosen TrainConfig, the predicted Perf{T, Γ, Acc}, and the final-epoch
// training loss are asserted against checked-in golden values. Every
// stage is deterministic at any thread count (task_seed batching + the
// bit-identical SpMM kernel contract, see kernels/spmm.hpp and
// test_kernels.cpp), so drift here means behavior actually changed.
// GoldenTrace trains the guideline on the sync executor,
// GoldenTraceAsyncExecutor on the async one (depth 3): same goldens.
//
// Regenerating the goldens (after an INTENDED behavior change):
//
//   GNAV_REGEN_GOLDEN=1 ./build/test_golden_trace
//
// prints a ready-to-paste kGolden initializer (and skips the
// assertions); copy it over the table below and re-run. The continuous
// values are compared with a 1e-7 relative tolerance: loose enough for
// IEEE-identical codegen differences, tight enough that any semantic
// change trips it. A different C library (libm) can shift
// transcendentals by an ULP and cascade through training — regenerate on
// such a toolchain switch. See README "Golden traces".
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "compute/backend.hpp"
#include "dse/objectives.hpp"
#include "estimator/profile_collector.hpp"
#include "graph/dataset.hpp"
#include "hw/platform.hpp"
#include "navigator/navigator.hpp"
#include "runtime/backend.hpp"

namespace gnav {
namespace {

struct GoldenCase {
  const char* dataset;        // dataset under navigation
  const char* corpus_dataset; // leave-one-out partner the corpus profiles
  const char* config_text;    // chosen guideline, ConfigMap serialization
  double predicted_time_s;
  double predicted_memory_gb;
  double predicted_accuracy;
  double final_epoch_loss;    // run(config) for 2 epochs, seed 1
  /// Compute backend the whole trace executes under: goldens are keyed
  /// by backend id. cpu-blocked is the production backend; cpu-scalar
  /// gives the same bits and the estimator and DSE never see the
  /// backend, so the cpu-blocked rows pin it too. A future backend with
  /// a different accumulation order gets its own rows here, not a
  /// tolerance.
  const char* backend = compute::kBlockedBackendId;
};

// Checked-in goldens. Regenerate with GNAV_REGEN_GOLDEN=1 (see header).
const GoldenCase kGolden[] = {
    {"ogbn-arxiv", "reddit2",
     "batchsize = 256;\nbiasrate = 0.69999999999999996;\ncachepolicy = "
     "static;\ncacheratio = 0.10000000000000001;\ncompress = "
     "true;\ndropout = 0.30000001192092896;\nhiddendim = 64;\nhoplist = "
     "[-1];\nlr = 0.0099999997764825821;\nmodel = sage;\nname = "
     "gnav-balance;\nnumlayers = 2;\npipeline = true;\nreorder = "
     "false;\nsaintbudget = 8;\nsampler = cluster;\n",
     0.097745504476018444, 0.59698107322516636, 0.59442920180293468,
     1.9327334607860969},
    {"reddit2", "ogbn-arxiv",
     "batchsize = 512;\nbiasrate = 0;\ncachepolicy = none;\ncacheratio = "
     "0;\ncompress = true;\ndropout = 0.30000001192092896;\nhiddendim = "
     "64;\nhoplist = [-1];\nlr = 0.0099999997764825821;\nmodel = "
     "sage;\nname = gnav-balance;\nnumlayers = 2;\npipeline = "
     "true;\nreorder = false;\nsaintbudget = 8;\nsampler = cluster;\n",
     0.60345994773033074, 0.67563103608602271, 0.65761915855138842,
     1.4746742189646083},
};

struct TraceResult {
  std::string config_text;
  estimator::PerfPrediction predicted;
  double final_epoch_loss = 0.0;
  // The final training run's executor profile and backend.
  runtime::PipelineReport executor;
  std::string backend_id;
};

TraceResult run_trace(const GoldenCase& c,
                      const runtime::PipelineConfig& executor) {
  // The case's backend runs the entire pipeline: corpus collection and
  // the final training run name it in their options (the estimator fit
  // and the exploration never see it). The final run uses `executor`.
  navigator::GNNavigator nav(graph::load_dataset(c.dataset),
                             hw::make_profile("rtx4090"),
                             dse::BaseSettings{});
  estimator::CollectorOptions opts;
  opts.configs_per_dataset = 8;
  opts.epochs = 1;
  opts.backend_id = c.backend;
  std::vector<estimator::ProfiledRun> corpus;
  {
    const auto partner = graph::load_dataset(c.corpus_dataset);
    corpus = estimator::collect_profiles(partner, nav.hardware(), opts);
    const auto aug = graph::make_power_law_augmentation(0, 9);
    auto runs = estimator::collect_profiles(aug, nav.hardware(), opts);
    corpus.insert(corpus.end(), runs.begin(), runs.end());
  }
  nav.prepare(corpus);

  dse::RuntimeConstraints constraints;
  constraints.max_memory_gb = nav.hardware().device.memory_gb;
  const navigator::Guideline guideline =
      nav.generate_guideline(dse::targets_balance(), constraints);

  TraceResult result;
  result.config_text = guideline.config.to_config_map().to_guideline_text();
  result.predicted = guideline.predicted;
  runtime::RunOptions ro;
  ro.epochs = 2;
  ro.seed = 1;
  ro.backend_id = c.backend;
  ro.pipeline = executor;
  const runtime::TrainReport report = nav.backend().run(guideline.config, ro);
  result.final_epoch_loss = report.epoch_loss.back();
  result.executor = report.pipeline;
  result.backend_id = report.backend_id;
  return result;
}

void print_regen_block(const GoldenCase& c, const TraceResult& r) {
  // Escape the config text as a C++ string literal (newlines only; the
  // guideline syntax contains no quotes or backslashes).
  std::string escaped;
  for (char ch : r.config_text) {
    if (ch == '\n') {
      escaped += "\\n";
    } else {
      escaped += ch;
    }
  }
  std::printf("    {\"%s\", \"%s\",\n", c.dataset, c.corpus_dataset);
  std::printf("     \"%s\",\n", escaped.c_str());
  std::printf("     %.17g, %.17g, %.17g, %.17g},\n", r.predicted.time_s,
              r.predicted.memory_gb, r.predicted.accuracy,
              r.final_epoch_loss);
}

void expect_matches_golden(const GoldenCase& c,
                           const runtime::PipelineConfig& executor) {
  const TraceResult r = run_trace(c, executor);
  if (std::getenv("GNAV_REGEN_GOLDEN") != nullptr) {
    print_regen_block(c, r);
    GTEST_SKIP() << "GNAV_REGEN_GOLDEN set: printed fresh goldens for "
                 << c.dataset << " instead of asserting";
  }
  EXPECT_EQ(r.backend_id, c.backend);
  EXPECT_EQ(r.executor.executor, runtime::to_string(executor.mode));
  if (executor.mode == runtime::PipelineMode::kAsync) {
    EXPECT_EQ(r.executor.prefetch_depth, executor.prefetch_depth);
  }
  EXPECT_EQ(r.config_text, c.config_text) << "chosen guideline drifted";
  const auto near = [](double expected, double actual) {
    return std::abs(actual - expected) <=
           1e-7 * std::max(1.0, std::abs(expected));
  };
  EXPECT_TRUE(near(c.predicted_time_s, r.predicted.time_s))
      << "predicted T: " << r.predicted.time_s << " vs golden "
      << c.predicted_time_s;
  EXPECT_TRUE(near(c.predicted_memory_gb, r.predicted.memory_gb))
      << "predicted mem: " << r.predicted.memory_gb << " vs golden "
      << c.predicted_memory_gb;
  EXPECT_TRUE(near(c.predicted_accuracy, r.predicted.accuracy))
      << "predicted acc: " << r.predicted.accuracy << " vs golden "
      << c.predicted_accuracy;
  EXPECT_TRUE(near(c.final_epoch_loss, r.final_epoch_loss))
      << "final-epoch loss: " << r.final_epoch_loss << " vs golden "
      << c.final_epoch_loss;
}

std::string golden_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  std::string name = info.param.dataset;
  name += "_";
  name += info.param.backend;
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class GoldenTrace : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTrace, PipelineMatchesCheckedInGolden) {
  expect_matches_golden(GetParam(), runtime::PipelineConfig{});
}

INSTANTIATE_TEST_SUITE_P(Registry, GoldenTrace, ::testing::ValuesIn(kGolden),
                         golden_name);

// The same goldens must hold VERBATIM when the final training run uses
// the asynchronous pipelined epoch executor: the executor's bit-identity
// contract (runtime/pipeline.hpp).
using GoldenTraceAsyncExecutor = GoldenTrace;

TEST_P(GoldenTraceAsyncExecutor, PipelineMatchesCheckedInGolden) {
  runtime::PipelineConfig executor;
  executor.mode = runtime::PipelineMode::kAsync;
  executor.prefetch_depth = 3;
  expect_matches_golden(GetParam(), executor);
}

INSTANTIATE_TEST_SUITE_P(Registry, GoldenTraceAsyncExecutor,
                         ::testing::ValuesIn(kGolden), golden_name);

}  // namespace
}  // namespace gnav
