// Descriptive statistics helpers shared by graph profiling, the
// performance estimator, and benchmark reporting.
#pragma once

#include <cstddef>
#include <vector>

namespace gnav {

double mean(const std::vector<double>& xs);
double variance(const std::vector<double>& xs);  // population variance
double stddev(const std::vector<double>& xs);
double median(std::vector<double> xs);  // by value: selects on a copy

/// q in [0,1]; linear interpolation between order statistics, found by
/// selection (nth_element), not a full sort.
double percentile(std::vector<double> xs, double q);

double min_of(const std::vector<double>& xs);
double max_of(const std::vector<double>& xs);

/// Pearson correlation; returns 0 when either side is constant.
double pearson(const std::vector<double>& xs, const std::vector<double>& ys);

/// Maximum-likelihood power-law exponent fit (Clauset et al. style) for
/// degrees >= x_min. Returns alpha; 0 when fewer than 2 usable samples.
double fit_power_law_alpha(const std::vector<std::size_t>& degrees,
                           std::size_t x_min);

}  // namespace gnav
