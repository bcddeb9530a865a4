// Pareto-front extraction over Perf{T, Γ, Acc} (minimize T and Γ,
// maximize Acc) — the optimality notion of the paper's decision maker.
//
// pareto_front is a sort-and-filter, not an all-pairs scan:
//   1. A point with a NaN coordinate is kept: every comparison with a
//      NaN is false, so such a point is never dominated and dominates
//      nothing. It is left out of the sort, whose order a NaN breaks.
//   2. The other indices are sorted by (T asc, Γ asc, Acc desc, index
//      asc). If j dominates i, j sorts first: j is no worse on every key
//      and strictly better on one, so the first key where they differ
//      puts j ahead (±0.0 compare equal, ±inf compare as usual).
//   3. Walking that order, a point is kept iff no point kept so far
//      dominates it. A dominated point has a non-dominated dominator
//      (dominance is transitive and the set finite), which sorts first
//      and is kept; a non-dominated point has no dominator at all. So
//      the kept set is exactly the all-pairs scan's front.
// Cost O(n log n + n·f) for a front of size f, against the scan's
// O(n²). On the navigate-sweep benchmark's 12 point sets per seed, n is
// 36–10,950 feasible candidates and f is 4–54 (seeds 21 and 31).
#pragma once

#include <cstddef>
#include <vector>

namespace gnav::dse {

struct PerfPoint {
  double time_s = 0.0;
  double memory_gb = 0.0;
  double accuracy = 0.0;
};

/// True when `a` dominates `b`: no worse on every metric, strictly better
/// on at least one.
bool dominates(const PerfPoint& a, const PerfPoint& b);

/// Indices of the non-dominated subset, in input order.
std::vector<std::size_t> pareto_front(const std::vector<PerfPoint>& points);

/// 2-D projections used by Fig. 6: dominance restricted to two metrics.
/// Runs pareto_front over the projection {x, y, 0} of each point, whose
/// dominance is exactly the plane's (a NaN stays in its coordinate).
enum class Plane { kTimeMemory, kMemoryAccuracy, kTimeAccuracy };
std::vector<std::size_t> pareto_front_2d(const std::vector<PerfPoint>& points,
                                         Plane plane);

}  // namespace gnav::dse
