#include "ml/gradient_boosting.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace gnav::ml {

GradientBoostingRegressor::GradientBoostingRegressor(BoostingParams params)
    : params_(params) {
  GNAV_CHECK(params_.num_rounds >= 1, "need at least one round");
  GNAV_CHECK(params_.learning_rate > 0.0 && params_.learning_rate <= 1.0,
             "learning rate must be in (0,1]");
}

void GradientBoostingRegressor::fit(const Matrix& x,
                                    const std::vector<double>& y) {
  GNAV_CHECK(!x.empty() && x.size() == y.size(), "bad training data");
  fitted_ = false;
  nodes_.clear();
  roots_.clear();
  steps_ = 0;
  feature_width_ = 0;
  double s = 0.0;
  for (double v : y) s += v;
  base_ = s / static_cast<double>(y.size());
  std::vector<double> residual(y.size());
  std::vector<double> pred(y.size(), base_);
  for (int round = 0; round < params_.num_rounds; ++round) {
    double max_resid = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      residual[i] = y[i] - pred[i];
      max_resid = std::max(max_resid, std::abs(residual[i]));
    }
    if (max_resid < 1e-12) break;  // perfectly fit
    DecisionTreeRegressor tree(params_.tree);
    tree.fit(x, residual);
    for (std::size_t i = 0; i < y.size(); ++i) {
      pred[i] += params_.learning_rate * tree.predict_one(x[i]);
    }
    append(tree);
  }
  fitted_ = true;
}

void GradientBoostingRegressor::append(const DecisionTreeRegressor& tree) {
  const auto root = static_cast<std::uint32_t>(nodes_.size());
  roots_.push_back(root);
  steps_ = std::max(steps_, tree.depth() - 1);
  const auto& src = tree.nodes();
  for (std::size_t i = 0; i < src.size(); ++i) {
    Node nd;
    if (src[i].feature < 0) {
      const auto self = root + static_cast<std::uint32_t>(i);
      nd.value = params_.learning_rate * src[i].value;
      nd.child = {self, self};
    } else {
      nd.threshold = src[i].threshold;
      nd.feature = static_cast<std::uint32_t>(src[i].feature);
      nd.child = {root + static_cast<std::uint32_t>(src[i].left),
                  root + static_cast<std::uint32_t>(src[i].right)};
      feature_width_ =
          std::max<std::size_t>(feature_width_, nd.feature + 1);
    }
    nodes_.push_back(nd);
  }
}

void GradientBoostingRegressor::predict_block(
    std::span<const std::vector<double>> x, std::span<double> out) const {
  GNAV_CHECK(is_fitted(), "predict before fit");
  GNAV_CHECK(x.size() == out.size(), "row/output count mismatch");
  for (const auto& row : x) {
    GNAV_CHECK(row.size() >= feature_width_,
               "feature index out of range in predict");
  }
  for (std::size_t begin = 0; begin < x.size(); begin += kTileRows) {
    const std::size_t len = std::min(kTileRows, x.size() - begin);
    const auto tile = x.subspan(begin, len);
    const auto tile_out = out.subspan(begin, len);
    std::fill(tile_out.begin(), tile_out.end(), base_);
    switch (steps_) {  // the estimator's two boosting shapes
      case 2:
        add_trees<2>(tile, tile_out);
        break;
      case 3:
        add_trees<3>(tile, tile_out);
        break;
      default:
        add_trees<-1>(tile, tile_out);
        break;
    }
  }
}

template <int kSteps>
void GradientBoostingRegressor::add_trees(
    std::span<const std::vector<double>> x, std::span<double> out) const {
  const int steps = kSteps >= 0 ? kSteps : steps_;
  const Node* nodes = nodes_.data();
  for (const std::uint32_t root : roots_) {
    for (std::size_t r = 0; r < x.size(); ++r) {
      const double* row = x[r].data();
      std::uint32_t id = root;
      for (int s = 0; s < steps; ++s) {
        const Node& nd = nodes[id];
        id = nd.child[!(row[nd.feature] <= nd.threshold)];
      }
      out[r] += nodes[id].value;
    }
  }
}

double GradientBoostingRegressor::predict_one(
    const std::vector<double>& x) const {
  double out = 0.0;
  predict_block({&x, 1}, {&out, 1});
  return out;
}

std::vector<double> GradientBoostingRegressor::predict(const Matrix& x) const {
  std::vector<double> out(x.size());
  predict_block(x, out);
  return out;
}

}  // namespace gnav::ml
