// Usite-wide metrics registry.
//
// The paper's JMC exists purely to monitor jobs; production UNICORE
// (Streit et al., 2005) grew site-wide operational monitoring on top.
// This registry is the in-process half of that story: components
// register labeled counters, gauges, and fixed-bucket histograms once
// and then record through stable references whose hot paths are plain
// adds, cheap enough for per-message network instrumentation. Like the
// rest of the Usite, the registry lives on the simulation thread.
//
// Snapshots are plain data with a wire codec (consumed by the
// MonitorService protocol request) and a Prometheus-style text render
// (consumed by the benches).
#pragma once

#include <cstdint>
#include <map>
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

/// Monotonically increasing value.
class Counter {
 public:
  void add(double delta) { value_ += delta; }
  void increment() { add(1.0); }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Value that can move in both directions (queue depths, free nodes).
class Gauge {
 public:
  void set(double value) { value_ = value; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. Bounds are upper-inclusive (`observation <=
/// bound`); one implicit overflow bucket catches the rest. observe() is
/// a bucket search plus three adds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size bounds().size() + 1 (last = overflow).
  const std::vector<std::uint64_t>& bucket_counts() const { return buckets_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
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

/// Owner of all series. Registration returns a reference that stays
/// valid for the registry's lifetime: std::map never moves a node, so
/// registering more series leaves earlier references in place.
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

  std::map<SeriesKey, Counter> counters_;
  std::map<SeriesKey, Gauge> gauges_;
  std::map<SeriesKey, Histogram> histograms_;
};

}  // namespace unicore::obs
