// Usite-wide metrics registry.
//
// The paper's JMC exists purely to monitor jobs; production UNICORE
// (Streit et al., 2005) grew site-wide operational monitoring on top.
// This registry is the in-process half of that story: components
// register labeled counters, gauges, and fixed-bucket histograms once
// (under a mutex) and then record through stable pointers whose hot
// paths are single atomic operations — safe to call from ThreadPool
// workers and cheap enough for per-message network instrumentation.
//
// Snapshots are plain data with a wire codec (consumed by the
// MonitorService protocol request) and a Prometheus-style text render
// (consumed by the benches).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace unicore::obs {

/// Metric labels as sorted (key, value) pairs. Registration sorts them,
/// so {a=1,b=2} and {b=2,a=1} name the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing value. add() is one atomic CAS loop.
class Counter {
 public:
  void add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  void increment() { add(1.0); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Value that can move in both directions (queue depths, free nodes).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bounds are upper-inclusive (`observation <=
/// bound`); one implicit overflow bucket catches the rest. observe() is
/// a bucket search plus three relaxed atomic adds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Latency-shaped bucket bounds in seconds (1 ms .. 60 s).
std::vector<double> latency_buckets();
/// Batch-duration-shaped bucket bounds in seconds (1 s .. 4 h).
std::vector<double> duration_buckets();

enum class MetricKind : std::uint8_t {
  kCounter = 1,
  kGauge = 2,
  kHistogram = 3,
};

/// One series captured at snapshot time.
struct MetricPoint {
  MetricKind kind = MetricKind::kCounter;
  std::string name;
  Labels labels;
  double value = 0.0;  // counter / gauge value; histogram sum
  // Histogram only:
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 entries
  std::uint64_t count = 0;
};

/// Point-in-time copy of every registered series.
struct MetricsSnapshot {
  std::vector<MetricPoint> points;

  /// Exact (name, labels) lookup; nullptr when absent.
  const MetricPoint* find(std::string_view name, const Labels& labels) const;
  /// Sum across every label set of `name`: counter/gauge values, or
  /// histogram observation counts. Zero when the name is absent.
  double total(std::string_view name) const;

  void encode(util::ByteWriter& writer) const;
  static MetricsSnapshot decode(util::ByteReader& reader);

  /// Prometheus exposition-format text dump.
  std::string to_prometheus() const;
};

/// Owner of all series. Registration takes a mutex and returns a
/// reference that stays valid for the registry's lifetime; recording
/// through it never locks.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  /// Re-registering an existing histogram returns it unchanged; `bounds`
  /// only applies to the first registration.
  Histogram& histogram(std::string_view name, Labels labels,
                       std::vector<double> bounds);

  MetricsSnapshot snapshot() const;
  std::string render_prometheus() const { return snapshot().to_prometheus(); }

 private:
  using SeriesKey = std::pair<std::string, Labels>;

  mutable std::mutex mutex_;
  std::map<SeriesKey, std::unique_ptr<Counter>> counters_;
  std::map<SeriesKey, std::unique_ptr<Gauge>> gauges_;
  std::map<SeriesKey, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace unicore::obs
