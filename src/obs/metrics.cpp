#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "support/error.hpp"

namespace gnav::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

void set_metrics_enabled(bool enabled) {
  detail::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  GNAV_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                 std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                     bounds_.end(),
             "Histogram bounds must be strictly increasing");
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::observe(double v) {
  if (!metrics_enabled()) return;
  const std::size_t bucket = static_cast<std::size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

namespace {

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + escape_label_value(labels[i].second) +
           "\"";
  }
  out += "}";
  return out;
}

/// Same rendering with one extra label appended (the histogram `le`).
std::string render_labels_with(const std::string& label_text,
                               const std::string& key,
                               const std::string& value) {
  const std::string extra = key + "=\"" + value + "\"";
  if (label_text.empty()) return "{" + extra + "}";
  std::string out = label_text;
  out.insert(out.size() - 1, "," + extra);
  return out;
}

/// Shortest round-trip double formatting (%.17g trims in practice via
/// %g's significant-digit semantics; value text is diagnostics, not data).
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string format_bound(double b) { return format_double(b); }

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Series& MetricsRegistry::find_or_create(
    const std::string& family, const Labels& labels, const std::string& help,
    Kind kind) {
  const auto family_it = family_kinds_.emplace(family, kind).first;
  GNAV_CHECK(family_it->second == kind,
             "metric family \"" + family +
                 "\" already registered with a different instrument kind");
  const std::string key = family + render_labels(labels);
  const auto it = index_.find(key);
  if (it != index_.end()) return series_[it->second];
  series_.emplace_back();
  Series& s = series_.back();
  s.family = family;
  s.label_text = render_labels(labels);
  s.help = help;
  s.kind = kind;
  index_.emplace(key, series_.size() - 1);
  return s;
}

Counter& MetricsRegistry::counter(const std::string& family,
                                  const Labels& labels,
                                  const std::string& help) {
  const support::MutexLock lock(mu_);
  Series& s = find_or_create(family, labels, help, Kind::kCounter);
  if (!s.counter) s.counter = std::make_unique<Counter>();
  return *s.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& family, const Labels& labels,
                              const std::string& help) {
  const support::MutexLock lock(mu_);
  Series& s = find_or_create(family, labels, help, Kind::kGauge);
  if (!s.gauge) s.gauge = std::make_unique<Gauge>();
  return *s.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& family,
                                      const Labels& labels,
                                      const std::string& help,
                                      std::vector<double> bounds) {
  const support::MutexLock lock(mu_);
  Series& s = find_or_create(family, labels, help, Kind::kHistogram);
  if (!s.histogram) {
    s.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return *s.histogram;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  const support::MutexLock lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(series_.size());
  for (const Series& s : series_) {
    const std::string base = s.family + s.label_text;
    switch (s.kind) {
      case Kind::kCounter:
        out.push_back({base, static_cast<double>(s.counter->value())});
        break;
      case Kind::kGauge:
        out.push_back({base, s.gauge->value()});
        break;
      case Kind::kHistogram: {
        const Histogram& h = *s.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b <= h.bounds().size(); ++b) {
          cumulative += h.bucket_count(b);
          const std::string le = b < h.bounds().size()
                                     ? format_bound(h.bounds()[b])
                                     : "+Inf";
          out.push_back({s.family + "_bucket" +
                             render_labels_with(s.label_text, "le", le),
                         static_cast<double>(cumulative)});
        }
        out.push_back({s.family + "_sum" + s.label_text, h.sum()});
        out.push_back({s.family + "_count" + s.label_text,
                       static_cast<double>(h.total_count())});
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  const support::MutexLock lock(mu_);
  // The text format allows one HELP/TYPE per family with all of its
  // samples in one group, but registration interleaves families (a
  // family's second label set can arrive after another family's series).
  // Group each family's series at the position of its first
  // registration.
  std::vector<std::vector<const Series*>> families;
  std::map<std::string, std::size_t> family_index;
  for (const Series& s : series_) {
    const auto [it, fresh] = family_index.emplace(s.family, families.size());
    if (fresh) families.emplace_back();
    families[it->second].push_back(&s);
  }
  for (const std::vector<const Series*>& family : families) {
    const Series& first = *family.front();
    if (!first.help.empty()) {
      os << "# HELP " << first.family << " " << first.help << "\n";
    }
    const char* type = first.kind == Kind::kCounter ? "counter"
                       : first.kind == Kind::kGauge ? "gauge"
                                                    : "histogram";
    os << "# TYPE " << first.family << " " << type << "\n";
    for (const Series* series : family) {
      const Series& s = *series;
      switch (s.kind) {
        case Kind::kCounter:
          os << s.family << s.label_text << " " << s.counter->value()
             << "\n";
          break;
        case Kind::kGauge:
          os << s.family << s.label_text << " "
             << format_double(s.gauge->value()) << "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *s.histogram;
          std::uint64_t cumulative = 0;
          for (std::size_t b = 0; b <= h.bounds().size(); ++b) {
            cumulative += h.bucket_count(b);
            const std::string le = b < h.bounds().size()
                                       ? format_bound(h.bounds()[b])
                                       : "+Inf";
            os << s.family << "_bucket"
               << render_labels_with(s.label_text, "le", le) << " "
               << cumulative << "\n";
          }
          os << s.family << "_sum" << s.label_text << " "
             << format_double(h.sum()) << "\n";
          os << s.family << "_count" << s.label_text << " "
             << h.total_count() << "\n";
          break;
        }
      }
    }
  }
}

std::string MetricsRegistry::prometheus_text() const {
  std::ostringstream os;
  write_prometheus(os);
  return os.str();
}

void MetricsRegistry::reset_values() {
  const support::MutexLock lock(mu_);
  for (Series& s : series_) {
    switch (s.kind) {
      case Kind::kCounter:
        s.counter->reset();
        break;
      case Kind::kGauge:
        s.gauge->reset();
        break;
      case Kind::kHistogram:
        s.histogram->reset();
        break;
    }
  }
}

std::size_t MetricsRegistry::series_count() const {
  const support::MutexLock lock(mu_);
  return series_.size();
}

}  // namespace gnav::obs
