// Tests for the from-scratch ML library: decision tree, gradient
// boosting, ridge regression, metrics, and splits.
#include <gtest/gtest.h>

#include <cmath>

#include "ml/decision_tree.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/metrics.hpp"
#include "ml/ridge.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

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
