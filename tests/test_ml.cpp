// Tests for the from-scratch ML library: decision tree, gradient
// boosting, ridge regression, metrics, and splits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <string>

#include "ml/decision_tree.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/metrics.hpp"
#include "ml/ridge.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"

namespace gnav::ml {
namespace {

/// y = step function of x0 plus mild noise — tree-friendly target.
void make_step_data(int n, std::uint64_t seed, Matrix* x,
                    std::vector<double>* y) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const double x0 = rng.uniform(0.0, 1.0);
    const double x1 = rng.uniform(0.0, 1.0);
    x->push_back({x0, x1});
    y->push_back((x0 > 0.5 ? 10.0 : -10.0) + rng.normal() * 0.2);
  }
}

/// y = 3 x0 - 2 x1 + 1 + noise — linear target.
void make_linear_data(int n, std::uint64_t seed, Matrix* x,
                      std::vector<double>* y) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-2.0, 2.0);
    const double x1 = rng.uniform(-2.0, 2.0);
    x->push_back({x0, x1});
    y->push_back(3.0 * x0 - 2.0 * x1 + 1.0 + rng.normal() * 0.05);
  }
}

TEST(Metrics, KnownValues) {
  const std::vector<double> yt = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(r2_score(yt, yt), 1.0);
  EXPECT_DOUBLE_EQ(mse(yt, {2, 3, 4, 5}), 1.0);
  EXPECT_DOUBLE_EQ(mae(yt, {2, 3, 4, 5}), 1.0);
  // predicting the mean gives R2 = 0
  EXPECT_NEAR(r2_score(yt, {2.5, 2.5, 2.5, 2.5}), 0.0, 1e-12);
  // constant targets -> define R2 = 0
  EXPECT_DOUBLE_EQ(r2_score({5, 5}, {5, 5}), 0.0);
  EXPECT_THROW(mse({1.0}, {}), Error);
  EXPECT_NEAR(mape({10, 20}, {11, 18}), 0.5 * (0.1 + 0.1), 1e-12);
}

TEST(DecisionTree, FitsStepFunctionPerfectly) {
  Matrix x;
  std::vector<double> y;
  make_step_data(300, 1, &x, &y);
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  EXPECT_TRUE(tree.is_fitted());
  EXPECT_GT(tree.node_count(), 1u);
  EXPECT_NEAR(tree.predict_one({0.9, 0.5}), 10.0, 1.0);
  EXPECT_NEAR(tree.predict_one({0.1, 0.5}), -10.0, 1.0);
  EXPECT_GT(r2_score(y, tree.predict(x)), 0.95);
}

TEST(DecisionTree, RespectsMaxDepth) {
  Matrix x;
  std::vector<double> y;
  make_step_data(200, 2, &x, &y);
  TreeParams params;
  params.max_depth = 1;
  DecisionTreeRegressor stump(params);
  stump.fit(x, y);
  EXPECT_LE(stump.depth(), 2);  // root + one split level
  EXPECT_LE(stump.node_count(), 3u);
}

TEST(DecisionTree, ConstantTargetGivesSingleLeaf) {
  Matrix x = {{0.0}, {1.0}, {2.0}};
  const std::vector<double> y = {4.0, 4.0, 4.0};
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict_one({5.0}), 4.0);
}

TEST(DecisionTree, ErrorsOnBadInput) {
  DecisionTreeRegressor tree;
  EXPECT_THROW(tree.fit({}, {}), Error);
  EXPECT_THROW(tree.fit({{1.0}}, {1.0, 2.0}), Error);
  EXPECT_THROW(tree.predict_one({1.0}), Error);  // before fit
  Matrix ragged = {{1.0, 2.0}, {1.0}};
  EXPECT_THROW(tree.fit(ragged, {1.0, 2.0}), Error);
}

TEST(GradientBoosting, FitsLinearTarget) {
  Matrix x;
  std::vector<double> y;
  make_linear_data(400, 6, &x, &y);
  Matrix xt;
  std::vector<double> yt;
  make_linear_data(100, 7, &xt, &yt);
  GradientBoostingRegressor gbm;
  gbm.fit(x, y);
  EXPECT_GT(gbm.round_count(), 10u);
  EXPECT_GT(r2_score(yt, gbm.predict(xt)), 0.9);
}

TEST(GradientBoosting, EarlyStopsOnPerfectFit) {
  Matrix x = {{0.0}, {1.0}, {2.0}, {3.0}};
  const std::vector<double> y = {5.0, 5.0, 5.0, 5.0};
  GradientBoostingRegressor gbm;
  gbm.fit(x, y);
  EXPECT_EQ(gbm.round_count(), 0u);  // base prediction already exact
  EXPECT_DOUBLE_EQ(gbm.predict_one({9.0}), 5.0);
}

/// The tree-by-tree prediction path the flat ensemble replaced: the same
/// boosting loop over DecisionTreeRegressor trees, then the base value
/// plus lr * tree.predict_one(x), tree by tree.
struct TreeSumReference {
  TreeSumReference(const BoostingParams& params, const Matrix& x,
                   const std::vector<double>& y)
      : learning_rate(params.learning_rate) {
    double s = 0.0;
    for (double v : y) s += v;
    base = s / static_cast<double>(y.size());
    std::vector<double> residual(y.size());
    std::vector<double> pred(y.size(), base);
    for (int round = 0; round < params.num_rounds; ++round) {
      double max_resid = 0.0;
      for (std::size_t i = 0; i < y.size(); ++i) {
        residual[i] = y[i] - pred[i];
        max_resid = std::max(max_resid, std::abs(residual[i]));
      }
      if (max_resid < 1e-12) break;
      DecisionTreeRegressor tree(params.tree);
      tree.fit(x, residual);
      for (std::size_t i = 0; i < y.size(); ++i) {
        pred[i] += learning_rate * tree.predict_one(x[i]);
      }
      trees.push_back(std::move(tree));
    }
  }

  double predict_one(const std::vector<double>& x) const {
    double out = base;
    for (const auto& tree : trees) out += learning_rate * tree.predict_one(x);
    return out;
  }

  double base = 0.0;
  double learning_rate = 0.0;
  std::vector<DecisionTreeRegressor> trees;
};

/// Depth (edges from the root) of every leaf of `tree`.
std::vector<int> leaf_depths(const DecisionTreeRegressor& tree) {
  std::vector<int> depths;
  std::vector<std::pair<int, int>> stack = {{0, 0}};
  while (!stack.empty()) {
    const auto [id, depth] = stack.back();
    stack.pop_back();
    const auto& nd = tree.nodes()[static_cast<std::size_t>(id)];
    if (nd.feature < 0) {
      depths.push_back(depth);
    } else {
      stack.push_back({nd.left, depth + 1});
      stack.push_back({nd.right, depth + 1});
    }
  }
  return depths;
}

/// Feature rows of the estimator's kind: an integer knob, a fraction, a
/// one-hot flag and a signed value.
Matrix make_mixed_rows(std::size_t n, Rng& rng) {
  Matrix x;
  for (std::size_t i = 0; i < n; ++i) {
    x.push_back({static_cast<double>(rng.uniform_index(10)), rng.uniform(),
                 rng.uniform() < 0.5 ? 0.0 : 1.0, rng.uniform(-1.0, 1.0)});
  }
  return x;
}

/// 1200 rows of make_mixed_rows, then copies of the first with one
/// feature set to every split value of `ref`'s trees and the doubles on
/// either side of it, or to NaN, ±inf, ±0 or a subnormal, and an all-NaN
/// row.
Matrix probe_rows(const TreeSumReference& ref, Rng& rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  Matrix rows = make_mixed_rows(1200, rng);
  const std::vector<double> seed_row = rows[0];
  const auto add = [&](std::size_t f, double v) {
    rows.push_back(seed_row);
    rows.back()[f] = v;
  };
  for (const auto& tree : ref.trees) {
    for (const auto& nd : tree.nodes()) {
      if (nd.feature < 0) continue;
      const auto f = static_cast<std::size_t>(nd.feature);
      add(f, nd.threshold);
      add(f, std::nextafter(nd.threshold, inf));
      add(f, std::nextafter(nd.threshold, -inf));
    }
  }
  for (std::size_t f = 0; f < seed_row.size(); ++f) {
    for (const double v :
         {nan, inf, -inf, 0.0, -0.0, tiny, -tiny, 4.0 * tiny, -1e-310}) {
      add(f, v);
    }
  }
  rows.push_back(std::vector<double>(seed_row.size(), nan));
  return rows;
}

/// Expects the flat ensemble to give the reference's bits for every row,
/// through predict_one, predict and predict_block in blocks of 1, 7, 128
/// and 1000 rows.
void expect_same_bits(const GradientBoostingRegressor& gbm,
                      const TreeSumReference& ref, const Matrix& rows) {
  std::vector<double> want;
  for (const auto& row : rows) want.push_back(ref.predict_one(row));
  const auto same = [&](const std::vector<double>& got, const char* path) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
          << path << " row " << i << ": " << got[i] << " vs " << want[i];
    }
  };
  std::vector<double> one;
  for (const auto& row : rows) one.push_back(gbm.predict_one(row));
  same(one, "predict_one");
  same(gbm.predict(rows), "predict");
  for (const std::size_t block : {1, 7, 128, 1000}) {
    std::vector<double> got(rows.size());
    for (std::size_t begin = 0; begin < rows.size(); begin += block) {
      const std::size_t len = std::min(block, rows.size() - begin);
      gbm.predict_block(std::span(rows).subspan(begin, len),
                        std::span(got).subspan(begin, len));
    }
    same(got, "predict_block");
  }
}

TEST(GradientBoosting, FlatEnsembleMatchesTreeSum) {
  BoostingParams small;  // the estimator's shape for corpora under 96 rows
  small.num_rounds = 40;
  small.learning_rate = 0.1;
  small.tree.max_depth = 2;
  small.tree.min_samples_leaf = 4;
  small.tree.min_samples_split = 8;
  const BoostingParams deep;  // 80 rounds of depth 3
  BoostingParams deeper;      // past the unrolled depths
  deeper.num_rounds = 20;
  deeper.tree.max_depth = 5;
  for (const auto& [params, n_train] :
       {std::pair{small, std::size_t{32}}, std::pair{deep, std::size_t{128}},
        std::pair{deeper, std::size_t{128}}}) {
    Rng rng(21 + n_train);
    const Matrix x = make_mixed_rows(n_train, rng);
    std::vector<double> y;
    for (const auto& row : x) {
      y.push_back((row[0] > 4.0 ? 2.0 : 0.0) + std::sin(3.0 * row[1]) +
                  row[2] * row[3] + 0.1 * rng.normal());
    }
    GradientBoostingRegressor gbm(params);
    gbm.fit(x, y);
    const TreeSumReference ref(params, x, y);
    ASSERT_EQ(gbm.round_count(), ref.trees.size());
    ASSERT_EQ(ref.trees.size(), static_cast<std::size_t>(params.num_rounds));

    // Leaves stop at different depths, so some walks loop on a leaf.
    std::vector<int> depths;
    for (const auto& tree : ref.trees) {
      for (int d : leaf_depths(tree)) depths.push_back(d);
    }
    EXPECT_LT(*std::min_element(depths.begin(), depths.end()),
              *std::max_element(depths.begin(), depths.end()));

    expect_same_bits(gbm, ref, probe_rows(ref, rng));
  }
}

TEST(GradientBoosting, FlatEnsembleMatchesTreeSumWithoutSplits) {
  const Matrix rows = {{0.5, 1.0}, {-1.0, 2.0}, {3.0, -4.0}};
  // Fewer rows than min_samples_split: every tree is a lone root leaf,
  // so the walk takes zero steps.
  const Matrix x = {{0.0, 1.0}, {1.0, 0.0}, {2.0, 2.0}, {3.0, 1.0}};
  const std::vector<double> y = {1.0, -2.0, 0.5, 4.0};
  BoostingParams params;
  params.num_rounds = 5;
  GradientBoostingRegressor stumps(params);
  stumps.fit(x, y);
  const TreeSumReference ref(params, x, y);
  ASSERT_EQ(stumps.round_count(), 5u);
  for (const auto& tree : ref.trees) ASSERT_EQ(tree.node_count(), 1u);
  expect_same_bits(stumps, ref, rows);

  // A constant target stops before the first round: the base value only.
  const std::vector<double> flat = {3.0, 3.0, 3.0, 3.0};
  GradientBoostingRegressor zero_rounds(params);
  zero_rounds.fit(x, flat);
  ASSERT_EQ(zero_rounds.round_count(), 0u);
  expect_same_bits(zero_rounds, TreeSumReference(params, x, flat), rows);
}

/// Pins the process-wide SIMD tier for one scope.
class TierScope {
 public:
  explicit TierScope(support::SimdTier tier) { support::set_simd_tier(tier); }
  ~TierScope() { support::set_simd_tier(support::SimdTier::kAuto); }
  TierScope(const TierScope&) = delete;
  TierScope& operator=(const TierScope&) = delete;
};

TEST(GradientBoosting, ColumnKernelMatchesPortableWalkBitwise) {
  if (!support::cpu_has_avx2()) {
    GTEST_SKIP() << "no AVX2 on this CPU";
  }
  // Depths 2 and 3 take the complete-tree kernel, 1 and 5 the walk.
  for (const int depth : {1, 2, 3, 5}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    BoostingParams params;
    params.num_rounds = depth == 2 ? 40 : 80;
    params.tree.max_depth = depth;
    Rng rng(90 + static_cast<std::uint64_t>(depth));
    Matrix x = make_mixed_rows(128, rng);
    std::vector<double> y;
    for (const auto& row : x) {
      y.push_back((row[0] > 4.0 ? 2.0 : 0.0) + std::sin(3.0 * row[1]) +
                  row[2] * row[3] + 0.1 * rng.normal());
    }
    // Five outliers: fewer than min_samples_split, so the trees that split
    // them off from the root keep them in a leaf at depth 1.
    for (int i = 0; i < 5; ++i) {
      x.push_back({50.0, rng.uniform(), 1.0, rng.uniform(-1.0, 1.0)});
      y.push_back(40.0 + rng.normal());
    }
    GradientBoostingRegressor gbm(params);
    gbm.fit(x, y);
    const TreeSumReference ref(params, x, y);
    ASSERT_EQ(gbm.round_count(), ref.trees.size());
    int deepest = 0;
    bool shallow_leaf = false;  // a leaf at depth 1 pads its subtree
    for (const auto& tree : ref.trees) {
      for (const int d : leaf_depths(tree)) {
        deepest = std::max(deepest, d);
        shallow_leaf = shallow_leaf || d == 1;
      }
    }
    ASSERT_EQ(deepest, depth);
    EXPECT_TRUE(shallow_leaf);

    // Shuffled, so the special rows land in full groups of four and in
    // tails alike.
    Matrix rows = probe_rows(ref, rng);
    std::shuffle(rows.begin(), rows.end(), std::mt19937_64(7));
    const std::size_t p = rows.size();
    const std::size_t width = rows[0].size();
    std::vector<double> cols(width * p);  // feature-major
    std::vector<double> want;
    for (std::size_t r = 0; r < p; ++r) {
      for (std::size_t f = 0; f < width; ++f) cols[f * p + r] = rows[r][f];
      want.push_back(ref.predict_one(rows[r]));
    }
    for (const auto tier : {support::SimdTier::kAuto,
                            support::SimdTier::kPortable}) {
      const TierScope scope(tier);
      // An empty block is legal and writes nothing.
      EXPECT_NO_THROW(gbm.predict_columns({}, 0, {}));
      for (const std::size_t block :
           {1, 3, 4, 5, 127, 128, 129, 1000}) {
        // Blocks of `block` rows read in place from the whole pool's
        // block (stride p), so each has its own tail.
        std::vector<double> got(p, -1.0);
        for (std::size_t begin = 0; begin < p; begin += block) {
          const std::size_t len = std::min(block, p - begin);
          gbm.predict_columns(std::span(cols).subspan(begin), p,
                              std::span(got).subspan(begin, len));
        }
        ASSERT_EQ(std::memcmp(got.data(), want.data(), p * sizeof(double)),
                  0)
            << (tier == support::SimdTier::kAuto ? "kAuto" : "kPortable")
            << " in blocks of " << block;
      }
    }
  }
}

TEST(GradientBoosting, PredictRejectsRowsMissingASplitFeature) {
  Matrix x;
  std::vector<double> y;
  make_step_data(100, 3, &x, &y);
  GradientBoostingRegressor gbm;
  EXPECT_THROW(gbm.predict_one({0.5, 0.5}), Error);  // before fit
  gbm.fit(x, y);
  EXPECT_NO_THROW(gbm.predict_one({0.5, 0.5}));
  EXPECT_THROW(gbm.predict_one({}), Error);
  std::vector<double> out(1);
  EXPECT_THROW(gbm.predict_block(x, out), Error);  // count mismatch
  // A block of two rows needs a stride of at least two.
  const std::vector<double> cols = {0.5, 0.5, 0.5, 0.5};
  std::vector<double> two(2);
  EXPECT_NO_THROW(gbm.predict_columns(cols, 2, two));
  EXPECT_THROW(gbm.predict_columns(cols, 1, two), Error);
  EXPECT_THROW(gbm.predict_columns({}, 2, two), Error);
}

TEST(Ridge, RecoversLinearCoefficients) {
  Matrix x;
  std::vector<double> y;
  make_linear_data(500, 8, &x, &y);
  RidgeRegressor ridge(1e-6);
  ridge.fit(x, y);
  ASSERT_EQ(ridge.coefficients().size(), 2u);
  EXPECT_NEAR(ridge.coefficients()[0], 3.0, 0.05);
  EXPECT_NEAR(ridge.coefficients()[1], -2.0, 0.05);
  EXPECT_NEAR(ridge.intercept(), 1.0, 0.05);
  EXPECT_GT(r2_score(y, ridge.predict(x)), 0.99);
}

TEST(Ridge, RegularizationShrinksCoefficients) {
  Matrix x;
  std::vector<double> y;
  make_linear_data(200, 9, &x, &y);
  RidgeRegressor weak(1e-6);
  RidgeRegressor strong(1e4);
  weak.fit(x, y);
  strong.fit(x, y);
  EXPECT_LT(std::abs(strong.coefficients()[0]),
            std::abs(weak.coefficients()[0]));
}

TEST(Ridge, HandlesCollinearFeaturesViaLambda) {
  // x1 == x0 duplicates -> singular normal equations unless regularized.
  Matrix x;
  std::vector<double> y;
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    const double v = rng.uniform(-1, 1);
    x.push_back({v, v});
    y.push_back(2.0 * v);
  }
  RidgeRegressor ridge(1e-3);
  EXPECT_NO_THROW(ridge.fit(x, y));
  EXPECT_NEAR(ridge.predict_one({0.5, 0.5}), 1.0, 0.05);
}

TEST(TrainTestSplit, PartitionsData) {
  Matrix x;
  std::vector<double> y;
  make_linear_data(100, 11, &x, &y);
  Matrix xtr, xte;
  std::vector<double> ytr, yte;
  train_test_split(x, y, 0.25, 42, &xtr, &ytr, &xte, &yte);
  EXPECT_EQ(xtr.size() + xte.size(), 100u);
  EXPECT_EQ(xte.size(), 25u);
  EXPECT_EQ(xtr.size(), ytr.size());
  EXPECT_EQ(xte.size(), yte.size());
  EXPECT_THROW(
      train_test_split(x, y, 1.5, 1, &xtr, &ytr, &xte, &yte), Error);
}

}  // namespace
}  // namespace gnav::ml
