// Black-box regressors for the gray-box performance estimator.
//
// The paper's estimator learns the residual functions f_sample,
// f_transfer, f_replace, f_compute, f_overlapping, f_accuracy from
// profiled training runs (Sec. 3.3), and its Fig. 5 baseline is a plain
// decision-tree regression. Everything here is implemented from scratch —
// no external ML dependency — and is deterministic given the seed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace gnav::ml {

/// Row-major design matrix: samples[i] is one feature vector.
using Matrix = std::vector<std::vector<double>>;

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Fits on X (n x d) and targets y (n). Throws on shape mismatch.
  virtual void fit(const Matrix& x, const std::vector<double>& y) = 0;

  virtual double predict_one(const std::vector<double>& x) const = 0;

  /// predict_one over every row; overridable by batched predictors.
  virtual std::vector<double> predict(const Matrix& x) const;

  virtual bool is_fitted() const = 0;
};

/// Deterministic train/test split by shuffled index (seeded).
void train_test_split(const Matrix& x, const std::vector<double>& y,
                      double test_fraction, std::uint64_t seed, Matrix* x_tr,
                      std::vector<double>* y_tr, Matrix* x_te,
                      std::vector<double>* y_te);

}  // namespace gnav::ml
