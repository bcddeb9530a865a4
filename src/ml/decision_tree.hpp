// CART regression tree: greedy variance-reduction splits on numeric
// features. This is the paper's black-box baseline model in Fig. 5
// ("Decision Tree Regression") and the building block of the boosting
// ensemble.
#pragma once

#include <vector>

#include "ml/regressor.hpp"

namespace gnav::ml {

struct TreeParams {
  int max_depth = 8;
  std::size_t min_samples_leaf = 3;
  std::size_t min_samples_split = 6;
  /// Consider only every k-th unique threshold for speed (1 = all).
  int threshold_stride = 1;
};

class DecisionTreeRegressor final : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeParams params = {});

  void fit(const Matrix& x, const std::vector<double>& y) override;
  double predict_one(const std::vector<double>& x) const override;
  bool is_fitted() const override { return !nodes_.empty(); }

  struct Node {
    int feature = -1;       // -1 => leaf
    double threshold = 0.0; // go left when x[feature] <= threshold
    double value = 0.0;     // leaf prediction
    int left = -1;
    int right = -1;
  };

  std::size_t node_count() const { return nodes_.size(); }
  /// Levels on the longest root-to-leaf path (a lone root leaf is 1).
  int depth() const;
  /// The fitted nodes; nodes()[0] is the root.
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  int build(const Matrix& x, const std::vector<double>& y,
            std::vector<std::size_t>& idx, int depth);

  TreeParams params_;
  std::vector<Node> nodes_;
};

}  // namespace gnav::ml
