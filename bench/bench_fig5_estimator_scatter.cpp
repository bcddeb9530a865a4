// Fig. 5 reproduction — "Accuracy comparison between different estimator
// models": gray-box (Eq. 12 analytic core x learned overlap penalty) vs
// black-box (plain decision-tree regression) mini-batch size prediction.
//
// The estimators are trained leave-one-dataset-out (everything except
// reddit2 + power-law augmentation, Sec. 4.1) and evaluated on reddit2
// configurations they never saw. Prints the predicted/measured pairs
// (the scatter points of Fig. 5) and the aggregate fit quality: the
// gray-box points hug the y = x line, the black-box points do not.
#include <cstdio>

#include "estimator/batch_size_estimator.hpp"
#include "estimator/profile_collector.hpp"
#include "ml/metrics.hpp"
#include "support/stats.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"

using namespace gnav;

int main() {
  const auto hw = hw::make_profile("rtx4090");

  estimator::CollectorOptions opts;
  opts.configs_per_dataset = 16;
  opts.epochs = 1;
  std::printf("collecting leave-one-out profiling corpus (holdout: reddit2)"
              "...\n");
  const auto corpus = estimator::collect_lodo_corpus(
      graph::dataset_names(), "reddit2", /*augmentation_graphs=*/2, hw,
      opts);

  estimator::GrayBoxBatchSizeEstimator gray;
  estimator::BlackBoxBatchSizeEstimator black;
  gray.fit(corpus, hw);
  black.fit(corpus, hw);

  // Held-out evaluation runs on reddit2.
  const auto ds = graph::load_dataset("reddit2");
  const auto stats = estimator::compute_dataset_stats(ds);
  estimator::CollectorOptions eval_opts;
  eval_opts.configs_per_dataset = 24;
  eval_opts.epochs = 1;
  eval_opts.seed = 31337;
  const auto eval_runs = estimator::collect_profiles(ds, hw, eval_opts);

  Table scatter({"measured |Vi|", "gray-box pred", "black-box pred",
                 "config"});
  std::vector<double> y_true;
  std::vector<double> y_gray;
  std::vector<double> y_black;
  for (const auto& run : eval_runs) {
    const double measured = run.report.avg_batch_nodes;
    const double g = gray.predict(run.config, stats, hw);
    const double b = black.predict(run.config, stats, hw);
    y_true.push_back(measured);
    y_gray.push_back(g);
    y_black.push_back(b);
    scatter.add_row({format_double(measured, 0), format_double(g, 0),
                     format_double(b, 0), run.config.summary()});
  }
  std::printf("\nFig. 5 scatter points (held-out reddit2):\n\n%s\n",
              scatter.to_ascii().c_str());
  scatter.write_csv("fig5_batch_size_scatter.csv");

  Table summary({"model", "R2 score", "MAPE", "pearson r"});
  summary.add_row({"gray-box (Eq. 12 + learned penalty)",
                   format_double(ml::r2_score(y_true, y_gray), 4),
                   format_double(ml::mape(y_true, y_gray), 4),
                   format_double(pearson(y_true, y_gray), 4)});
  summary.add_row({"black-box (decision-tree regression)",
                   format_double(ml::r2_score(y_true, y_black), 4),
                   format_double(ml::mape(y_true, y_black), 4),
                   format_double(pearson(y_true, y_black), 4)});
  std::printf("%s\n", summary.to_ascii().c_str());
  std::printf("(paper Fig. 5: the gray-box scatter is 'far better' aligned\n"
              " with the y=x diagonal than the pure black-box model)\n");
  return 0;
}
