#include "dse/pareto.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace gnav::dse {
namespace {

bool has_nan(const PerfPoint& p) {
  return std::isnan(p.time_s) || std::isnan(p.memory_gb) ||
         std::isnan(p.accuracy);
}

/// Projects a point to a 3-D point whose dominance is the plane's 2-D
/// dominance: (minimize, minimize) coordinates and a constant accuracy.
PerfPoint project(const PerfPoint& p, Plane plane) {
  switch (plane) {
    case Plane::kTimeMemory:
      return {p.time_s, p.memory_gb, 0.0};
    case Plane::kMemoryAccuracy:
      return {p.memory_gb, -p.accuracy, 0.0};
    case Plane::kTimeAccuracy:
      return {p.time_s, -p.accuracy, 0.0};
  }
  return {};
}

}  // namespace

bool dominates(const PerfPoint& a, const PerfPoint& b) {
  const bool no_worse = a.time_s <= b.time_s && a.memory_gb <= b.memory_gb &&
                        a.accuracy >= b.accuracy;
  const bool strictly_better = a.time_s < b.time_s ||
                               a.memory_gb < b.memory_gb ||
                               a.accuracy > b.accuracy;
  return no_worse && strictly_better;
}

std::vector<std::size_t> pareto_front(const std::vector<PerfPoint>& points) {
  // NaN points start the front: they dominate nothing, so checking new
  // points against them too changes nothing.
  std::vector<std::size_t> front;
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < points.size(); ++i) {
    (has_nan(points[i]) ? front : order).push_back(i);
  }
  // Every dominator of a point sorts before it (see pareto.hpp).
  const auto key = [&](std::size_t i) {
    const PerfPoint& p = points[i];
    return std::tuple(p.time_s, p.memory_gb, -p.accuracy, i);
  };
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
  for (const std::size_t i : order) {
    const bool dominated =
        std::any_of(front.begin(), front.end(), [&](std::size_t k) {
          return dominates(points[k], points[i]);
        });
    if (!dominated) front.push_back(i);
  }
  std::sort(front.begin(), front.end());
  return front;
}

std::vector<std::size_t> pareto_front_2d(const std::vector<PerfPoint>& points,
                                         Plane plane) {
  std::vector<PerfPoint> projected;
  projected.reserve(points.size());
  for (const PerfPoint& p : points) projected.push_back(project(p, plane));
  return pareto_front(projected);
}

}  // namespace gnav::dse
