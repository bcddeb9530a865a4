#include "dse/explorer.hpp"

#include <algorithm>
#include <iterator>
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
                   double bound_gb, ExplorationStats& stats,
                   std::vector<runtime::TrainConfig>& leaves) const {
  const auto& axes = space_->axes();
  if (axis == axes.size()) {
    // Pruning never looks at predictions, so surviving leaves are only
    // collected here and scored together once the subtree is walked.
    runtime::TrainConfig config;
    if (!space_->materialize(levels, &config)) return;
    ++stats.leaves_evaluated;
    leaves.push_back(std::move(config));
    return;
  }
  for (std::size_t level = 0; level < axes[axis].cardinality; ++level) {
    levels[axis] = level;
    ++stats.nodes_visited;
    if (axis == kCacheAxis && bound_gb > 0.0 &&
        memory_lower_bound_gb(levels) > bound_gb) {
      ++stats.subtrees_pruned;
      continue;
    }
    dfs(levels, axis + 1, bound_gb, stats, leaves);
  }
  levels[axis] = 0;
}

ExplorationResult Explorer::wave(
    const RuntimeConstraints& constraints, double bound_gb,
    std::vector<runtime::TrainConfig> templates) const {
  ExplorationResult result;
  const auto& axes = space_->axes();
  // The walk down to the roots: every assignment of the axes above the
  // cache axis, each node counted as the serial DFS counts it.
  std::size_t roots = 1;
  for (std::size_t a = 0; a < kCacheAxis; ++a) {
    roots *= axes[a].cardinality;
    result.stats.nodes_visited += roots;
  }
  std::size_t subtree_leaves = 1;
  for (std::size_t a = kCacheAxis; a < axes.size(); ++a) {
    subtree_leaves *= axes[a].cardinality;
  }

  // One part per task, without a front: part 0 holds the templates,
  // part r + 1 the subtree under root r.
  std::vector<ExplorationResult> parts(roots + 1);
  support::ThreadPool& pool = pool_ ? *pool_ : support::global_pool();
  pool.parallel_for(0, parts.size(), [&](std::size_t t) {
    ExplorationResult& part = parts[t];
    std::vector<runtime::TrainConfig> leaves;
    if (t == 0) {
      leaves = std::move(templates);
      part.stats.leaves_evaluated = leaves.size();
    } else {
      // Root t - 1's levels, decoded in mixed radix (DFS order).
      std::vector<std::size_t> levels(axes.size(), 0);
      for (std::size_t a = kCacheAxis, rest = t - 1; a-- > 0;) {
        levels[a] = rest % axes[a].cardinality;
        rest /= axes[a].cardinality;
      }
      leaves.reserve(subtree_leaves);
      dfs(levels, kCacheAxis, bound_gb, part.stats, leaves);
    }
    std::vector<estimator::PerfPrediction> predicted(leaves.size());
    estimator_->predict(leaves, stats_, predicted);
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      if (!satisfies(predicted[i], constraints)) continue;
      part.feasible.push_back(Candidate{std::move(leaves[i]), predicted[i]});
    }
    part.stats.feasible = part.feasible.size();
  });

  std::size_t feasible = 0;
  for (const ExplorationResult& part : parts) feasible += part.feasible.size();
  result.feasible.reserve(feasible);
  for (ExplorationResult& part : parts) {
    result.stats.nodes_visited += part.stats.nodes_visited;
    result.stats.subtrees_pruned += part.stats.subtrees_pruned;
    result.stats.leaves_evaluated += part.stats.leaves_evaluated;
    result.stats.feasible += part.stats.feasible;
    std::move(part.feasible.begin(), part.feasible.end(),
              std::back_inserter(result.feasible));
  }
  std::vector<PerfPoint> points;
  points.reserve(result.feasible.size());
  for (const Candidate& c : result.feasible) points.push_back(c.point());
  result.pareto = pareto_front(points);
  return result;
}

ExplorationResult Explorer::explore(
    const RuntimeConstraints& constraints,
    const std::vector<runtime::TrainConfig>& initial_templates) const {
  // Initial set: reproductions of existing works (paper Fig. 4 step 1).
  std::vector<runtime::TrainConfig> templates;
  for (const runtime::TrainConfig& t : initial_templates) {
    runtime::TrainConfig cfg = t;
    // Pin application-fixed fields so templates compete fairly.
    cfg.model = space_->base().model;
    cfg.num_layers = space_->base().num_layers;
    cfg.dropout = space_->base().dropout;
    cfg.learning_rate = space_->base().learning_rate;
    cfg.validate();
    templates.push_back(std::move(cfg));
  }
  ExplorationResult result =
      wave(constraints, constraints.max_memory_gb, std::move(templates));
  log_info("DFS explored ", result.stats.leaves_evaluated, " leaves, pruned ",
           result.stats.subtrees_pruned, " subtrees, ",
           result.stats.feasible, " feasible, pareto size ",
           result.pareto.size());
  return result;
}

ExplorationResult Explorer::explore_exhaustive(
    const RuntimeConstraints& constraints) const {
  ExplorationResult result = wave(constraints, /*bound_gb=*/0.0, {});
  result.stats.nodes_visited = result.stats.leaves_evaluated;
  return result;
}

}  // namespace gnav::dse
