// Sample statistics, correctness digests and JSON emission for bench_e2e.
#pragma once

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "runtime/backend.hpp"
#include "support/stats.hpp"

namespace gnav::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The spread printed next to a timing: quartiles and sample count.
struct Summary {
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

inline Summary summarize(const std::vector<double>& v) {
  return {percentile(v, 0.25), percentile(v, 0.75), v.size()};
}

/// FNV-1a over the bit patterns of doubles: the loss digest that ties a
/// run's numbers to the arithmetic that produced them.
class Digest {
 public:
  void add(double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      h_ ^= (bits >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add(const std::vector<double>& xs) {
    for (double x : xs) add(x);
  }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// The data-bearing TrainReport fields — everything the executor and
/// backend bit-identity contracts cover. Wall-clock observables
/// (pipeline walls, stalls, wall_clock_s) and the process-wide
/// device_peak_bytes are excluded.
inline bool same_data(const runtime::TrainReport& a,
                      const runtime::TrainReport& b) {
  return a.epoch_loss == b.epoch_loss && a.epoch_times_s == b.epoch_times_s &&
         a.epoch_train_accuracy == b.epoch_train_accuracy &&
         a.epoch_val_accuracy == b.epoch_val_accuracy &&
         a.final_train_accuracy == b.final_train_accuracy &&
         a.val_accuracy == b.val_accuracy &&
         a.test_accuracy == b.test_accuracy &&
         a.epoch_time_s == b.epoch_time_s &&
         a.peak_memory_gb == b.peak_memory_gb &&
         a.cache_hit_rate == b.cache_hit_rate &&
         a.avg_batch_nodes == b.avg_batch_nodes &&
         a.avg_batch_edges == b.avg_batch_edges &&
         a.per_batch_nodes == b.per_batch_nodes &&
         a.iterations_per_epoch == b.iterations_per_epoch &&
         a.pipeline.modeled_overlapped_s == b.pipeline.modeled_overlapped_s &&
         a.pipeline.modeled_sequential_s == b.pipeline.modeled_sequential_s;
}

/// Minimal JSON object writer: named numbers, strings and nested
/// objects, emitted in insertion order on one line.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& obj(const std::string& key, const Json& v) { return raw(key, v.text()); }
  Json& raw(const std::string& key, const std::string& text) {
    if (!body_.empty()) body_ += ", ";
    body_ += quote(key) + ": " + text;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

  static std::string list(const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      out += (i ? ", " : "") + quote(items[i]);
    }
    return out + "]";
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

/// A metric as printed: value, unit, and (for timings) its spread.
struct Metric {
  Metric() = default;
  Metric(double v, std::string u, Summary s = {})
      : value(v), unit(std::move(u)), spread(s) {}

  double value = 0.0;
  std::string unit;
  Summary spread;  // n == 0 when the metric is a single measurement
};

inline Json metrics_json(const std::map<std::string, Metric>& metrics) {
  Json out;
  for (const auto& [name, m] : metrics) {
    Json j;
    j.num("value", m.value).str("unit", m.unit);
    if (m.spread.n > 0) {
      j.num("q1", m.spread.q1).num("q3", m.spread.q3).num(
          "n", static_cast<double>(m.spread.n));
    }
    out.obj(name, j);
  }
  return out;
}

}  // namespace gnav::bench
