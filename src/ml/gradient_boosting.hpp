// Gradient boosting with shallow CART trees (least-squares boosting):
// F_0 = mean(y); F_k = F_{k-1} + lr * tree_k(residuals). The gray-box
// estimator uses this as its default residual learner — smooth targets,
// small data, strong bias control.
//
// Prediction never walks DecisionTreeRegressor objects: `fit` compiles
// each round's tree into one flat node array as it goes:
//   - a node holds a split feature, a threshold, two child slots
//     ([0] left, [1] right) and a value; a row steps to
//     child[!(x[feature] <= threshold)], so NaN goes right, as in
//     DecisionTreeRegressor;
//   - a leaf points both child slots at itself and stores
//     learning_rate * leaf value, so every tree is stepped exactly the
//     ensemble's maximum depth: no branch on the node kind and no
//     per-tree trip count (extra steps land on the same leaf);
//   - a block of rows is walked trees outermost, rows inner, in tiles
//     of kTileRows rows; the steps are unrolled at compile time for the
//     estimator's depths (2 and 3); predict_one is the one-row block.
// Bit contract: per row the sum starts at the base value and adds
// learning_rate * leaf value tree by tree, in fit order — the same
// products and the same sequence of double additions as summing
// learning_rate * tree.predict_one(x) over the trees. The per-node
// feature-index check of the tree walk is one check per call instead:
// every row must cover every split feature.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/decision_tree.hpp"

namespace gnav::ml {

struct BoostingParams {
  int num_rounds = 80;
  double learning_rate = 0.15;
  TreeParams tree{/*max_depth=*/3, /*min_samples_leaf=*/3,
                  /*min_samples_split=*/6, /*threshold_stride=*/1};
};

class GradientBoostingRegressor final : public Regressor {
 public:
  explicit GradientBoostingRegressor(BoostingParams params = {});

  void fit(const Matrix& x, const std::vector<double>& y) override;
  double predict_one(const std::vector<double>& x) const override;
  std::vector<double> predict(const Matrix& x) const override;
  /// out[i] = prediction for x[i]. Throws before fit, when the counts
  /// differ, or when a row is too short for some split feature.
  void predict_block(std::span<const std::vector<double>> x,
                     std::span<double> out) const;
  bool is_fitted() const override { return fitted_; }

  std::size_t round_count() const { return roots_.size(); }

 private:
  /// Rows per tile of predict_block: enough independent walks per tree
  /// to overlap their loads, few enough that a tile's rows stay cached.
  static constexpr std::size_t kTileRows = 128;

  struct Node {
    double threshold = 0.0;
    double value = 0.0;  // learning_rate * leaf value; 0 at a split
    std::uint32_t feature = 0;
    std::array<std::uint32_t, 2> child{};  // a leaf's both point to it
  };

  /// Compiles `tree` onto the flat node array as the next round.
  void append(const DecisionTreeRegressor& tree);
  /// Adds every tree's leaf to out[i] for row x[i], stepping each tree
  /// kSteps times (steps_ when kSteps < 0).
  template <int kSteps>
  void add_trees(std::span<const std::vector<double>> x,
                 std::span<double> out) const;

  BoostingParams params_;
  double base_ = 0.0;
  bool fitted_ = false;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> roots_;  // one per round, in fit order
  int steps_ = 0;                     // edges on the deepest tree's path
  std::size_t feature_width_ = 0;     // 1 + the largest split feature
};

}  // namespace gnav::ml
