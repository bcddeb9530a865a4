// Design space exploration (paper Fig. 4).
//
// The explorer starts from an initial candidate set seeded with the
// templates of existing works (so GNNavigator never loses to a system it
// can reproduce), then walks the remaining design space depth-first,
// pruning whole subtrees whose *analytic lower bounds* already violate a
// runtime constraint:
//   - Γ lower bound: framework overhead + cache memory of the partially
//     assigned cache ratio (memory can only grow from there);
//   - T lower bound: compute-only epoch time at the smallest remaining
//     batch expansion.
// Every surviving leaf is scored through the gray-box estimator.
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
  /// DFS bounds save (ablation) and to drive Fig. 6 sweeps.
  ExplorationResult explore_exhaustive(
      const RuntimeConstraints& constraints) const;

  /// Pool the candidate predictions fan out on (nullptr → global pool).
  /// Results are identical at any pool size: candidate order is fixed by
  /// the traversal, prediction is pure, and feasibility filtering runs
  /// serially afterwards.
  void set_pool(support::ThreadPool* pool) { pool_ = pool; }

 private:
  /// Whether a predicted Perf meets every active runtime limit.
  static bool satisfies(const estimator::PerfPrediction& p,
                        const RuntimeConstraints& c);
  void dfs(std::vector<std::size_t>& levels, std::size_t axis,
           const RuntimeConstraints& constraints, ExplorationResult& result,
           std::vector<runtime::TrainConfig>& leaves) const;
  /// Predicts `configs` concurrently, then appends the feasible ones to
  /// `result` in input order.
  void evaluate_candidates(const std::vector<runtime::TrainConfig>& configs,
                           const RuntimeConstraints& constraints,
                           ExplorationResult& result) const;
  /// Sound lower bounds for pruning at a partial assignment (axes
  /// [0, axis) fixed).
  double memory_lower_bound_gb(const std::vector<std::size_t>& levels,
                               std::size_t axis) const;
  void finish_result(ExplorationResult& result) const;

  const DesignSpace* space_;
  const estimator::PerfEstimator* estimator_;
  estimator::DatasetStats stats_;
  support::ThreadPool* pool_ = nullptr;
};

}  // namespace gnav::dse
