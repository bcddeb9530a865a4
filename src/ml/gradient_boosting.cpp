#include "ml/gradient_boosting.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/simd.hpp"

#if defined(GNAV_SIMD_X86)
#include <immintrin.h>
#endif

namespace gnav::ml {
namespace {

#if defined(GNAV_SIMD_X86)
/// Adds each of `count` complete trees of depth kDepth to out[r] for the
/// rows r < out.size() (a multiple of 4) of the block, four rows at a
/// time: per split slot one unordered not-less-or-equal compare (all
/// ones where the row goes right, NaN included), then every split slot,
/// deepest first, blends its two children's values, so slot 0 ends up
/// holding the leaf the walk reaches. Tree is the regressor's private
/// CompleteTree.
template <int kDepth, typename Tree>
__attribute__((target("avx2"))) void add_complete_trees_avx2(
    const Tree* trees, std::size_t count, const double* cols,
    std::size_t stride, std::span<double> out) {
  constexpr int kSplits = (1 << kDepth) - 1;
  for (const Tree* tree = trees; tree != trees + count; ++tree) {
    const double* x[kSplits];
    __m256d threshold[kSplits];
    __m256d leaf[kSplits + 1];
    for (int s = 0; s < kSplits; ++s) {
      x[s] = cols + tree->feature[s] * stride;
      threshold[s] = _mm256_set1_pd(tree->threshold[s]);
    }
    for (int l = 0; l <= kSplits; ++l) leaf[l] = _mm256_set1_pd(tree->leaf[l]);
    for (std::size_t r = 0; r < out.size(); r += 4) {
      __m256d node[2 * kSplits + 1];  // level order, leaves last
      for (int l = 0; l <= kSplits; ++l) node[kSplits + l] = leaf[l];
      for (int s = kSplits - 1; s >= 0; --s) {
        const __m256d right = _mm256_cmp_pd(_mm256_loadu_pd(x[s] + r),
                                            threshold[s], _CMP_NLE_UQ);
        node[s] = _mm256_blendv_pd(node[2 * s + 1], node[2 * s + 2], right);
      }
      double* sum = out.data() + r;
      _mm256_storeu_pd(sum, _mm256_add_pd(_mm256_loadu_pd(sum), node[0]));
    }
  }
}
#endif  // GNAV_SIMD_X86

}  // namespace

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
  lay_out_complete_trees();
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

void GradientBoostingRegressor::lay_out_complete_trees() {
  complete_.clear();
  if (steps_ != 2 && steps_ != 3) return;
  const std::size_t splits = (std::size_t{1} << steps_) - 1;
  for (const std::uint32_t root : roots_) {
    // Flat node ids in level order. A leaf's child slots point back at
    // the leaf, so its whole subtree repeats it: the padding.
    std::array<std::uint32_t, 15> id{};
    id[0] = root;
    CompleteTree tree;
    for (std::size_t s = 0; s < splits; ++s) {
      const Node& nd = nodes_[id[s]];
      tree.threshold[s] = nd.threshold;
      tree.feature[s] = nd.feature;
      id[2 * s + 1] = nd.child[0];
      id[2 * s + 2] = nd.child[1];
    }
    for (std::size_t l = 0; l <= splits; ++l) {
      tree.leaf[l] = nodes_[id[splits + l]].value;
    }
    complete_.push_back(tree);
  }
}

void GradientBoostingRegressor::predict_columns(std::span<const double> cols,
                                                std::size_t stride,
                                                std::span<double> out) const {
  GNAV_CHECK(is_fitted(), "predict before fit");
  const std::size_t n = out.size();
  if (n == 0) return;  // an empty block reads nothing
  GNAV_CHECK(stride >= n && (feature_width_ == 0 ||
                             cols.size() >= (feature_width_ - 1) * stride + n),
             "feature index out of range in predict");
  for (std::size_t begin = 0; begin < n; begin += kTileRows) {
    predict_tile(cols.data() + begin, stride,
                 out.subspan(begin, std::min(kTileRows, n - begin)));
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
  // Each tile's split features, copied feature-major.
  std::vector<double> cols(feature_width_ * std::min(kTileRows, x.size()));
  for (std::size_t begin = 0; begin < x.size(); begin += kTileRows) {
    const std::size_t len = std::min(kTileRows, x.size() - begin);
    for (std::size_t r = 0; r < len; ++r) {
      for (std::size_t f = 0; f < feature_width_; ++f) {
        cols[f * len + r] = x[begin + r][f];
      }
    }
    predict_tile(cols.data(), len, out.subspan(begin, len));
  }
}

void GradientBoostingRegressor::predict_tile(const double* cols,
                                             std::size_t stride,
                                             std::span<double> out) const {
  std::fill(out.begin(), out.end(), base_);
  std::size_t done = 0;  // rows the complete trees covered
#if defined(GNAV_SIMD_X86)
  if (!complete_.empty() && support::simd_isa() == support::SimdIsa::kAvx2) {
    done = out.size() / 4 * 4;
    if (steps_ == 2) {
      add_complete_trees_avx2<2>(complete_.data(), complete_.size(), cols,
                                 stride, out.first(done));
    } else {
      add_complete_trees_avx2<3>(complete_.data(), complete_.size(), cols,
                                 stride, out.first(done));
    }
  }
#endif
  const std::span<double> rest = out.subspan(done);
  switch (steps_) {  // the estimator's two boosting shapes
    case 2:
      add_trees<2>(cols + done, stride, rest);
      break;
    case 3:
      add_trees<3>(cols + done, stride, rest);
      break;
    default:
      add_trees<-1>(cols + done, stride, rest);
      break;
  }
}

template <int kSteps>
void GradientBoostingRegressor::add_trees(const double* cols,
                                          std::size_t stride,
                                          std::span<double> out) const {
  const int steps = kSteps >= 0 ? kSteps : steps_;
  const Node* nodes = nodes_.data();
  for (const std::uint32_t root : roots_) {
    for (std::size_t r = 0; r < out.size(); ++r) {
      const double* row = cols + r;
      std::uint32_t id = root;
      for (int s = 0; s < steps; ++s) {
        const Node& nd = nodes[id];
        id = nd.child[!(row[nd.feature * stride] <= nd.threshold)];
      }
      out[r] += nodes[id].value;
    }
  }
}

double GradientBoostingRegressor::predict_one(
    const std::vector<double>& x) const {
  double out = 0.0;
  predict_columns(x, 1, {&out, 1});  // one row is a block of stride 1
  return out;
}

std::vector<double> GradientBoostingRegressor::predict(const Matrix& x) const {
  std::vector<double> out(x.size());
  predict_block(x, out);
  return out;
}

}  // namespace gnav::ml
