// gnav::obs — process-wide metrics registry (half one of the telemetry
// layer; scoped trace spans live in obs/trace.hpp).
//
// Layers that already count things privately (StagedQueue stalls,
// DeviceCache hits, DeviceAllocator bytes, JobScheduler tenants) publish
// those counts here as named instruments so one Prometheus-style text
// snapshot shows the whole process. Three instrument kinds:
//
//   Counter   — monotone uint64 (events since process start).
//   Gauge     — double that goes up and down (bytes in use, queue depth)
//               or a monotone double sum (busy seconds; Prometheus
//               counters are doubles, ours are integral, so second-sums
//               are gauges by construction).
//   Histogram — fixed upper bounds chosen at registration; cumulative
//               bucket counts plus sum/count, Prometheus semantics.
//
// Contracts the rest of the codebase relies on:
//   - Cheap hot path: updating an instrument is one relaxed atomic RMW,
//     and every update is gated on `metrics_enabled()` (a relaxed load)
//     so the disabled path is near-zero and a run with metrics off is
//     observationally identical to one compiled without them.
//   - No Rng: nothing here reads or advances any random stream, so
//     enabling metrics can never perturb a TrainReport bit
//     (pinned by test_obs.cpp).
//   - Stable references: counter()/gauge()/histogram() return references
//     that live until process exit — resolve once, update forever.
//   - Deterministic exposition: snapshot() lists series in
//     first-registration order; write_prometheus() emits each family
//     once, at the position of its first registered series, with all of
//     that family's series under it in registration order. So
//     single-threaded scenarios produce byte-identical text across runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/thread_safety.hpp"

namespace gnav::obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace detail

/// Global toggle. Off by default; CLI/bench flags and tests flip it.
inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool enabled);

/// Label set of one series, rendered in the given order (callers pass
/// stable orders so series identity is deterministic).
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!metrics_enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) {
    if (!metrics_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(double d) {
    if (!metrics_enabled()) return;
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  /// `bounds` must be strictly increasing upper bucket bounds; an
  /// implicit +Inf bucket is appended.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  // bounds_ is set once by the constructor and never mutated, so the
  // reference cannot go stale.  gnav-lint(mutable-ref-accessor)
  const std::vector<double>& bounds() const { return bounds_; }
  /// Non-cumulative count of bucket i (i == bounds().size() is +Inf).
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t total_count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> count_{0};
};

/// One exposition sample: a fully-qualified series name (family plus
/// rendered labels, histogram sub-series expanded with the Prometheus
/// _bucket/_sum/_count suffixes) and its current value.
struct MetricSample {
  std::string name;
  double value = 0.0;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  /// Find-or-create. The (family, labels) pair is the series key. A
  /// family has one instrument kind: asking for any of its label sets
  /// with a different kind throws gnav::Error naming the family.
  /// Returned references are valid for the process lifetime.
  Counter& counter(const std::string& family, const Labels& labels,
                   const std::string& help) GNAV_EXCLUDES(mu_);
  Gauge& gauge(const std::string& family, const Labels& labels,
               const std::string& help) GNAV_EXCLUDES(mu_);
  /// `bounds` applies on first registration of the series; later lookups
  /// of the same series ignore it.
  Histogram& histogram(const std::string& family, const Labels& labels,
                       const std::string& help, std::vector<double> bounds)
      GNAV_EXCLUDES(mu_);

  /// Every series value in first-registration order (histograms expand
  /// to their cumulative _bucket series plus _sum and _count).
  std::vector<MetricSample> snapshot() const GNAV_EXCLUDES(mu_);

  /// Prometheus text exposition format: one # HELP / # TYPE pair per
  /// family and every series of the family grouped under it, even when
  /// registration interleaved it with other families. Families appear in
  /// order of their first registered series; a family's series in
  /// registration order.
  void write_prometheus(std::ostream& os) const GNAV_EXCLUDES(mu_);
  std::string prometheus_text() const GNAV_EXCLUDES(mu_);

  /// Zeroes every instrument's value but keeps all registrations (and
  /// their order), so tests can compare runs without re-resolving.
  void reset_values() GNAV_EXCLUDES(mu_);

  std::size_t series_count() const GNAV_EXCLUDES(mu_);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    std::string family;
    std::string label_text;  // rendered "{k=\"v\",...}" or ""
    std::string help;
    Kind kind = Kind::kCounter;
    // Exactly one is engaged, matching `kind`; unique_ptr keeps the
    // instrument address stable across registry growth.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Series& find_or_create(const std::string& family, const Labels& labels,
                         const std::string& help, Kind kind)
      GNAV_REQUIRES(mu_);

  mutable support::Mutex mu_;
  /// Registration order; deque so Series addresses survive growth.
  std::deque<Series> series_ GNAV_GUARDED_BY(mu_);
  /// family+label_text -> index into series_.
  std::map<std::string, std::size_t> index_ GNAV_GUARDED_BY(mu_);
  /// family -> the kind of its first registration.
  std::map<std::string, Kind> family_kinds_ GNAV_GUARDED_BY(mu_);
};

}  // namespace gnav::obs
