#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "support/error.hpp"

namespace gnav {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) { return std::sqrt(variance(xs)); }

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

double percentile(std::vector<double> xs, double q) {
  GNAV_CHECK(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  if (xs.empty()) return 0.0;
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // The lo-th order statistic by selection; the hi-th is then the least
  // element after it.
  const auto at_lo = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), at_lo, xs.end());
  const double x_lo = *at_lo;
  const double x_hi =
      hi == lo ? x_lo : *std::min_element(at_lo + 1, xs.end());
  return x_lo * (1.0 - frac) + x_hi * frac;
}

double min_of(const std::vector<double>& xs) {
  GNAV_CHECK(!xs.empty(), "min of empty vector");
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(const std::vector<double>& xs) {
  GNAV_CHECK(!xs.empty(), "max of empty vector");
  return *std::max_element(xs.begin(), xs.end());
}

double pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  GNAV_CHECK(xs.size() == ys.size(), "pearson: size mismatch");
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double fit_power_law_alpha(const std::vector<std::size_t>& degrees,
                           std::size_t x_min) {
  GNAV_CHECK(x_min >= 1, "x_min must be >= 1");
  double log_sum = 0.0;
  std::size_t n = 0;
  const double xm = static_cast<double>(x_min) - 0.5;
  for (std::size_t d : degrees) {
    if (d < x_min) continue;
    log_sum += std::log(static_cast<double>(d) / xm);
    ++n;
  }
  if (n < 2 || log_sum <= 0.0) return 0.0;
  return 1.0 + static_cast<double>(n) / log_sum;
}

}  // namespace gnav
