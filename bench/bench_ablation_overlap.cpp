// Ablation — Eq. 4's host/device pipeline overlap, predicted AND
// measured. The paper's epoch-time model takes max(t_sample + t_transfer,
// t_replace + t_compute) because sampling/transfer of batch i+1 overlaps
// device work on batch i. This bench quantifies that two ways per
// configuration:
//
//   modeled  — the cost model's pipelined vs sequential simulated epoch
//              time (the original ablation);
//   measured — the real pipelined epoch executor (the async shape of
//              runtime/pipeline.hpp) vs the synchronous executor:
//              actual stage-overlap speedup from wall-clock stage
//              accounting, plus the overlap efficiency.
//
// The gap between the two columns is exactly what the estimator's
// f_overlapping correction learns from measured data: a second table
// (the gray-box arm) fits an OverlapModel on an async depth/worker sweep
// and reports, per config, the pipelined epoch-wall error of the fitted
// correction next to the bare Eq. 4 max() — both against the measured
// executor wall of a *separate* depth-4 run. That eval run's wall was
// never seen by the fit, but its shape was profiled (the production
// regime: sweep once, predict future runs). test_overlap_model checks
// the complementary split: held-out corpus rows whose configs the fit
// never saw.
#include <cmath>
#include <cstdio>

#include "estimator/overlap_model.hpp"
#include "navigator/navigator.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"

using namespace gnav;

int main() {
  navigator::GNNavigator nav(graph::load_dataset("reddit2"),
                             hw::make_profile("rtx4090"),
                             dse::BaseSettings{});
  const int epochs = 2;

  Table table({"config", "pipelined T (s)", "sequential T (s)",
               "Eq.4 speedup", "measured speedup", "overlap eff (%)",
               "host share (%)"});
  struct Arm {
    const char* name;
    runtime::TrainConfig config;
  };
  std::vector<Arm> arms;
  arms.push_back({"pyg (transfer-heavy)", runtime::template_pyg()});
  arms.push_back({"pagraph-full (balanced)", runtime::template_pagraph_full()});
  {
    runtime::TrainConfig c = runtime::template_pyg();
    c.model = nn::ModelKind::kGat;  // compute-heavy device side
    c.name = "gat";
    arms.push_back({"gat (compute-heavy)", c});
  }
  {
    runtime::TrainConfig c = runtime::template_pagraph_full();
    c.compress_features = true;
    c.name = "compressed";
    arms.push_back({"pagraph + int8 link", c});
  }

  // Gray-box arm bookkeeping: per arm, an async depth/worker sweep
  // trains the overlap model and a held-out depth-4 run evaluates it.
  std::vector<estimator::ProfiledRun> fit_rows;
  std::vector<estimator::ProfiledRun> eval_rows;
  const estimator::DatasetStats stats = nav.dataset_stats();

  for (auto& arm : arms) {
    runtime::TrainConfig pipelined = arm.config;
    pipelined.pipeline_overlap = true;
    runtime::TrainConfig sequential = arm.config;
    sequential.pipeline_overlap = false;
    const auto rp = nav.train(pipelined, epochs);
    const auto rs = nav.train(sequential, epochs);

    // Real executor measurement: the same config under the asynchronous
    // pipelined epoch executor. The report is bit-identical to rp except
    // for the wall-clock pipeline fields — which are the point here.
    runtime::RunOptions async_opts;
    async_opts.epochs = epochs;
    async_opts.pipeline.mode = runtime::PipelineMode::kAsync;
    async_opts.pipeline.prefetch_depth = 4;
    const auto ra = nav.backend().run(pipelined, async_opts);
    eval_rows.push_back({stats, pipelined, ra});

    // Overlap-model training sweep: separate runs of the same config
    // across executor shapes. The eval rows above are distinct
    // executions whose measured walls the fit never sees, but depth 4
    // itself is in the sweep — this table scores the
    // profile-once-predict-reruns regime.
    const struct {
      std::size_t depth, workers;
    } kSweep[] = {{1, 1}, {2, 2}, {4, 4}, {8, 4}};
    for (const auto& shape : kSweep) {
      runtime::RunOptions o = async_opts;
      o.pipeline.prefetch_depth = shape.depth;
      o.pipeline.sampler_workers = shape.workers;
      fit_rows.push_back({stats, pipelined, nav.backend().run(pipelined, o)});
    }

    const double host = rp.epoch_phases.sample_s + rp.epoch_phases.transfer_s;
    const double share = host / rp.epoch_phases.total();
    table.add_row({arm.name, format_double(rp.epoch_time_s, 2),
                   format_double(rs.epoch_time_s, 2),
                   format_double(rs.epoch_time_s / rp.epoch_time_s, 2) + "x",
                   format_double(ra.pipeline.measured_speedup(), 2) + "x",
                   format_double(100.0 * ra.pipeline.overlap_efficiency(), 1),
                   format_double(100.0 * share, 1)});
  }
  std::printf("pipeline-overlap ablation (Reddit2 + SAGE unless noted):\n\n"
              "%s\n", table.to_ascii().c_str());
  std::printf(
      "(Eq.4 speedup is the cost model's prediction; measured speedup is\n"
      " the real pipelined executor's serial-stage-work / wall ratio —\n"
      " overlap gains approach 2x when host and device pipelines are\n"
      " balanced, vanish when one side dominates, and the measured column\n"
      " additionally reflects this host's true core count)\n");
  table.write_csv("ablation_overlap.csv");

  // ---- Gray-box overlap arm: fitted correction vs bare Eq. 4 max() ----
  estimator::OverlapModel model(nav.hardware());
  model.fit(fit_rows);

  Table graybox({"config", "measured wall (s)", "fitted wall (s)",
                 "Eq.4 wall (s)", "fitted err (%)", "Eq.4 err (%)"});
  double mae_fit = 0.0;
  double mae_analytic = 0.0;
  std::size_t evaluated = 0;
  for (const auto& row : eval_rows) {
    // Sync or empty rows carry no measured walls — never divide by or
    // score against them.
    if (!estimator::OverlapModel::row_eligible(row)) continue;
    const runtime::PipelineReport& p = row.report.pipeline;
    const double serial = p.measured_sequential_s();
    const double analytic =
        estimator::OverlapModel::analytic_ratio(row.report);
    const estimator::OverlapExecutorShape shape{p.prefetch_depth,
                                                p.sampler_workers};
    const double wall_fit =
        serial * model.predict_ratio(row.config, stats, shape, analytic);
    const double wall_analytic = serial * analytic;
    const double err_fit = std::abs(wall_fit - p.measured_wall_s);
    const double err_analytic = std::abs(wall_analytic - p.measured_wall_s);
    mae_fit += err_fit;
    mae_analytic += err_analytic;
    ++evaluated;
    graybox.add_row(
        {row.config.name, format_double(p.measured_wall_s, 3),
         format_double(wall_fit, 3), format_double(wall_analytic, 3),
         format_double(100.0 * err_fit / p.measured_wall_s, 1),
         format_double(100.0 * err_analytic / p.measured_wall_s, 1)});
  }
  if (evaluated > 0) {
    mae_fit /= static_cast<double>(evaluated);
    mae_analytic /= static_cast<double>(evaluated);
    graybox.add_row({"MAE (aggregate)", "-", "-", "-",
                     format_double(mae_fit, 4),
                     format_double(mae_analytic, 4)});
  }
  std::printf(
      "\ngray-box overlap arm (fitted on %zu async sweep rows, evaluated\n"
      "on separate depth-4 runs — unseen walls, profiled shape. Walls\n"
      "are the executor's real epoch wall-clock):\n\n%s\n",
      model.training_rows(), graybox.to_ascii().c_str());
  if (evaluated > 0) {
    std::printf("aggregate wall MAE: fitted %.4fs vs Eq.4 %.4fs (%s)\n",
                mae_fit, mae_analytic,
                mae_fit <= mae_analytic ? "fitted wins" : "analytic wins");
  } else {
    std::printf("no async-executor eval rows — gray-box arm skipped\n");
  }
  graybox.write_csv("ablation_overlap_graybox.csv");
  return 0;
}
