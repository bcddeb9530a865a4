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
//   - a leaf points both child slots at itself, stores
//     learning_rate * leaf value and keeps the default split (feature 0,
//     threshold 0), so every tree is stepped exactly the ensemble's
//     maximum depth D: no branch on the node kind and no per-tree trip
//     count (extra steps land on the same leaf).
// Rows are read from a feature-major block (feature f of row r at
// cols[f * stride + r]) in tiles of kTileRows rows, trees outermost
// within a tile. predict_one is the one-row block of stride 1 (the row
// itself); predict_block copies each tile of rows into such a block.
//
// Complete trees. When D is 2 or 3 (the estimator's two boosting
// shapes), `fit` also lays each tree out as a complete level-order tree
// of depth D: split slots s < 2^D - 1 hold (feature, threshold) with
// children 2s + 1 and 2s + 2, and the 2^D slots after them are leaves
// holding learning_rate * value. A leaf above depth D fills its whole
// subtree (padding): its split slots take its own default split
// (feature 0, threshold 0) and all its leaf slots take its value, so
// whatever those compares say, the row lands on the walk's leaf. On
// AVX2 (support::simd_isa() == kAvx2) four rows at a time take one
// _mm256_cmp_pd(x, t, _CMP_NLE_UQ) per split slot (NaN compares
// "right", as !(x <= t) does), pick their leaf with bottom-up blends and
// add it: no gathers, no branches, no dependent loads. The rows of a
// tile past its last full group of four take the flat walk. Every other
// tier and depth takes the flat walk for all rows; it is the portable
// reference.
//
// Bit contract: per row the sum starts at the base value and adds
// learning_rate * leaf value tree by tree, in fit order — the same
// products and the same sequence of double additions as summing
// learning_rate * tree.predict_one(x) over the trees, on every path.
// Leaf values are selected, never computed. The per-node feature-index
// check of the tree walk is one check per call instead: the block must
// hold every split feature of every row.
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
  /// out[r] = prediction for row r of the feature-major block `cols`:
  /// feature f of row r at cols[f * stride + r], for r < out.size().
  /// Throws before fit, or, unless out is empty, when stride <
  /// out.size() or `cols` ends before some split feature's column does.
  void predict_columns(std::span<const double> cols, std::size_t stride,
                       std::span<double> out) const;
  bool is_fitted() const override { return fitted_; }

  std::size_t round_count() const { return roots_.size(); }

 private:
  /// Rows per tile: enough independent rows per tree to overlap their
  /// loads, few enough that a tile's feature columns stay in L1.
  static constexpr std::size_t kTileRows = 128;

  struct Node {
    double threshold = 0.0;
    double value = 0.0;  // learning_rate * leaf value; 0 at a split
    std::uint32_t feature = 0;
    std::array<std::uint32_t, 2> child{};  // a leaf's both point to it
  };

  /// One round as a complete level-order tree of depth D <= 3 (see the
  /// file comment); a depth-2 tree uses the first 3 splits and 4 leaves.
  struct CompleteTree {
    std::array<double, 7> threshold{};
    std::array<std::uint32_t, 7> feature{};
    std::array<double, 8> leaf{};
  };

  /// Compiles `tree` onto the flat node array as the next round.
  void append(const DecisionTreeRegressor& tree);
  /// Lays every round out as a complete tree of depth steps_.
  void lay_out_complete_trees();
  /// out[r] = base + every tree's leaf for row r of the block, r <
  /// out.size() <= kTileRows.
  void predict_tile(const double* cols, std::size_t stride,
                    std::span<double> out) const;
  /// Adds every tree's leaf to out[r] for row r of the block, stepping
  /// each tree kSteps times (steps_ when kSteps < 0).
  template <int kSteps>
  void add_trees(const double* cols, std::size_t stride,
                 std::span<double> out) const;

  BoostingParams params_;
  double base_ = 0.0;
  bool fitted_ = false;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> roots_;  // one per round, in fit order
  std::vector<CompleteTree> complete_;  // one per round when D is 2 or 3
  int steps_ = 0;                     // edges on the deepest tree's path
  std::size_t feature_width_ = 0;     // 1 + the largest split feature
};

}  // namespace gnav::ml
