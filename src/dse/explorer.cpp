#include "dse/explorer.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "support/error.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"

namespace gnav::dse {
namespace {
/// Axis index of the joint (cache_ratio, cache_policy) axis in
/// DesignSpace::axes() — pruning bounds become available once it is fixed.
constexpr std::size_t kCacheAxis = 3;
constexpr double kFrameworkOverheadGb = 0.55;
/// Candidates per task of the prediction wave: each task scores one
/// block through the estimator's span predict.
constexpr std::size_t kPredictBlock = 128;
}  // namespace

Explorer::Explorer(const DesignSpace& space,
                   const estimator::PerfEstimator& est,
                   estimator::DatasetStats stats)
    : space_(&space), estimator_(&est), stats_(std::move(stats)) {
  GNAV_CHECK(est.is_fitted(), "explorer needs a fitted estimator");
}

bool Explorer::satisfies(const estimator::PerfPrediction& p,
                         const RuntimeConstraints& c) {
  if (c.max_epoch_time_s > 0.0 && p.time_s > c.max_epoch_time_s) return false;
  if (c.max_memory_gb > 0.0 && p.memory_gb > c.max_memory_gb) return false;
  if (c.min_accuracy > 0.0 && p.accuracy < c.min_accuracy) return false;
  return true;
}

double Explorer::memory_lower_bound_gb(
    const std::vector<std::size_t>& levels) const {
  // Complete the assignment with level-0 defaults (always materializable:
  // level 0 of every axis is the least-demanding choice) and take the
  // irreducible memory floor: framework overhead + the fixed cache.
  std::vector<std::size_t> completed = levels;
  std::fill(completed.begin() + kCacheAxis + 1, completed.end(), 0);
  runtime::TrainConfig probe;
  if (!space_->materialize(completed, &probe)) return 0.0;
  return kFrameworkOverheadGb +
         estimator_->analytic_cache_memory_gb(probe, stats_);
}

void Explorer::dfs(std::vector<std::size_t>& levels, std::size_t axis,
                   const RuntimeConstraints& constraints,
                   ExplorationResult& result,
                   std::vector<runtime::TrainConfig>& leaves) const {
  const auto& axes = space_->axes();
  if (axis == axes.size()) {
    // Pruning never looks at predictions, so surviving leaves are only
    // collected here and scored in one parallel wave afterwards.
    runtime::TrainConfig config;
    if (!space_->materialize(levels, &config)) return;
    ++result.stats.leaves_evaluated;
    leaves.push_back(std::move(config));
    return;
  }
  for (std::size_t level = 0; level < axes[axis].cardinality; ++level) {
    levels[axis] = level;
    ++result.stats.nodes_visited;
    if (axis == kCacheAxis && constraints.max_memory_gb > 0.0) {
      const double bound = memory_lower_bound_gb(levels);
      if (bound > constraints.max_memory_gb) {
        ++result.stats.subtrees_pruned;
        continue;
      }
    }
    dfs(levels, axis + 1, constraints, result, leaves);
  }
  levels[axis] = 0;
}

void Explorer::evaluate_candidates(
    std::vector<runtime::TrainConfig> configs,
    const RuntimeConstraints& constraints, ExplorationResult& result) const {
  const std::size_t n = configs.size();
  std::vector<estimator::PerfPrediction> predictions(n);
  support::ThreadPool& pool = pool_ ? *pool_ : support::global_pool();
  pool.parallel_for(0, (n + kPredictBlock - 1) / kPredictBlock,
                    [&](std::size_t block) {
                      const std::size_t begin = block * kPredictBlock;
                      const std::size_t len =
                          std::min(kPredictBlock, n - begin);
                      estimator_->predict(
                          std::span(configs).subspan(begin, len), stats_,
                          std::span(predictions).subspan(begin, len));
                    });
  for (std::size_t i = 0; i < n; ++i) {
    if (!satisfies(predictions[i], constraints)) continue;
    result.feasible.push_back(
        Candidate{std::move(configs[i]), predictions[i]});
    ++result.stats.feasible;
  }
}

void Explorer::finish_result(ExplorationResult& result) const {
  std::vector<PerfPoint> points;
  points.reserve(result.feasible.size());
  for (const Candidate& c : result.feasible) points.push_back(c.point());
  result.pareto = pareto_front(points);
}

ExplorationResult Explorer::explore(
    const RuntimeConstraints& constraints,
    const std::vector<runtime::TrainConfig>& initial_templates) const {
  ExplorationResult result;
  // Initial set: reproductions of existing works (paper Fig. 4 step 1).
  std::vector<runtime::TrainConfig> candidates;
  for (const runtime::TrainConfig& t : initial_templates) {
    runtime::TrainConfig cfg = t;
    // Pin application-fixed fields so templates compete fairly.
    cfg.model = space_->base().model;
    cfg.num_layers = space_->base().num_layers;
    cfg.dropout = space_->base().dropout;
    cfg.learning_rate = space_->base().learning_rate;
    cfg.validate();
    ++result.stats.leaves_evaluated;
    candidates.push_back(std::move(cfg));
  }
  std::vector<std::size_t> levels(space_->axes().size(), 0);
  dfs(levels, 0, constraints, result, candidates);
  evaluate_candidates(std::move(candidates), constraints, result);
  finish_result(result);
  log_info("DFS explored ", result.stats.leaves_evaluated, " leaves, pruned ",
           result.stats.subtrees_pruned, " subtrees, ",
           result.stats.feasible, " feasible, pareto size ",
           result.pareto.size());
  return result;
}

ExplorationResult Explorer::explore_exhaustive(
    const RuntimeConstraints& constraints) const {
  ExplorationResult result;
  std::vector<runtime::TrainConfig> configs = space_->enumerate();
  result.stats.nodes_visited = configs.size();
  result.stats.leaves_evaluated = configs.size();
  evaluate_candidates(std::move(configs), constraints, result);
  finish_result(result);
  return result;
}

}  // namespace gnav::dse
