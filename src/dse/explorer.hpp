// Design space exploration (paper Fig. 4).
//
// The explorer starts from an initial candidate set seeded with the
// templates of existing works (so GNNavigator never loses to a system it
// can reproduce), then walks the remaining design space depth-first,
// pruning whole subtrees whose *analytic lower bound* already violates
// the memory budget: framework overhead + the cache memory of the
// assigned cache ratio (memory can only grow from there).
//
// The bound is taken only at cache-axis nodes. Below such a node the
// completed assignment either keeps the same cache ratio, and with it
// the same bound, or no longer materializes (a non-zero bias without a
// cache), which only removes validity. So the bound never rises below
// the cache axis, and no deeper node can be pruned.
//
// A query is one pool wave. The calling thread walks the axes above the
// cache axis (batch size x sampler x fanout: 64 roots in the full space,
// 6 in the reduced one) and hands each cache-axis subtree to one task.
// The task runs the DFS from the cache axis with the bound and its own
// counters, materializes the subtree's leaves, scores them through the
// gray-box estimator's span predict and keeps the feasible ones. The
// templates are one more task. The serial tail concatenates the parts,
// templates first and then subtrees in root order: the serial DFS's
// feasible order and stats at any pool size.
#pragma once

#include <cstdint>
#include <vector>

#include "dse/design_space.hpp"
#include "dse/objectives.hpp"
#include "dse/pareto.hpp"
#include "estimator/perf_estimator.hpp"

namespace gnav::support {
class ThreadPool;
}

namespace gnav::dse {

struct Candidate {
  runtime::TrainConfig config;
  estimator::PerfPrediction predicted;

  PerfPoint point() const {
    return {predicted.time_s, predicted.memory_gb, predicted.accuracy};
  }
};

struct ExplorationStats {
  std::size_t nodes_visited = 0;   // DFS tree nodes touched
  std::size_t subtrees_pruned = 0; // cut by constraint bounds
  std::size_t leaves_evaluated = 0;
  std::size_t feasible = 0;
};

struct ExplorationResult {
  std::vector<Candidate> feasible;   // constraint-satisfying leaves
  std::vector<std::size_t> pareto;   // indices into `feasible`
  ExplorationStats stats;
};

class Explorer {
 public:
  Explorer(const DesignSpace& space, const estimator::PerfEstimator& est,
           estimator::DatasetStats stats);

  /// DFS exploration with constraint pruning + template seeding.
  ExplorationResult explore(const RuntimeConstraints& constraints,
                            const std::vector<runtime::TrainConfig>&
                                initial_templates) const;

  /// Exhaustive exploration (no pruning) — used to measure how much the
  /// DFS bounds save (ablation) and to drive Fig. 6 sweeps. The same
  /// wave with the bound off; it counts one visited node per leaf.
  ExplorationResult explore_exhaustive(
      const RuntimeConstraints& constraints) const;

  /// Pool the wave's tasks run on (nullptr → global pool). Results are
  /// identical at any pool size: each task's part is a pure function of
  /// its subtree, and the parts are concatenated in a fixed order.
  void set_pool(support::ThreadPool* pool) { pool_ = pool; }

 private:
  /// Whether a predicted Perf meets every active runtime limit.
  static bool satisfies(const estimator::PerfPrediction& p,
                        const RuntimeConstraints& c);
  /// The query's pool wave: `templates`, then every cache-axis subtree
  /// pruned against `bound_gb` (0 = no bound), filtered by `constraints`.
  ExplorationResult wave(const RuntimeConstraints& constraints,
                         double bound_gb,
                         std::vector<runtime::TrainConfig> templates) const;
  /// DFS below `levels`' assignment of the axes above `axis`: counts into
  /// `stats` and appends the valid leaves to `leaves` in DFS order.
  void dfs(std::vector<std::size_t>& levels, std::size_t axis,
           double bound_gb, ExplorationStats& stats,
           std::vector<runtime::TrainConfig>& leaves) const;
  /// Sound Γ lower bound at a cache-axis node (axes [0, kCacheAxis]
  /// fixed; later levels are ignored).
  double memory_lower_bound_gb(const std::vector<std::size_t>& levels) const;

  const DesignSpace* space_;
  const estimator::PerfEstimator* estimator_;
  estimator::DatasetStats stats_;
  support::ThreadPool* pool_ = nullptr;
};

}  // namespace gnav::dse
