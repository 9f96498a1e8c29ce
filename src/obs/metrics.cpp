#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace unicore::obs {
namespace {

Labels sorted(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string format_value(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(value));
  }
  std::ostringstream out;
  out << value;
  return out.str();
}

std::string render_labels(const Labels& labels,
                          const std::string& extra_key = {},
                          const std::string& extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"" + value + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + extra_value + "\"";
  }
  out += "}";
  return out;
}

void encode_labels(util::ByteWriter& writer, const Labels& labels) {
  writer.varint(labels.size());
  for (const auto& [key, value] : labels) {
    writer.str(key);
    writer.str(value);
  }
}

Labels decode_labels(util::ByteReader& reader) {
  Labels labels;
  std::uint64_t n = reader.count();
  labels.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = reader.str();
    std::string value = reader.str();
    labels.emplace_back(std::move(key), std::move(value));
  }
  return labels;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::observe(double value) {
  std::size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(buckets_.size());
  for (const auto& bucket : buckets_)
    counts.push_back(bucket.load(std::memory_order_relaxed));
  return counts;
}

std::vector<double> latency_buckets() {
  return {0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
          60};
}

std::vector<double> duration_buckets() {
  return {1, 5, 15, 60, 300, 900, 1800, 3600, 7200, 14400};
}

const MetricPoint* MetricsSnapshot::find(std::string_view name,
                                         const Labels& labels) const {
  Labels wanted = sorted(labels);
  for (const auto& point : points)
    if (point.name == name && point.labels == wanted) return &point;
  return nullptr;
}

double MetricsSnapshot::total(std::string_view name) const {
  double sum = 0.0;
  for (const auto& point : points) {
    if (point.name != name) continue;
    sum += point.kind == MetricKind::kHistogram
               ? static_cast<double>(point.count)
               : point.value;
  }
  return sum;
}

void MetricsSnapshot::encode(util::ByteWriter& writer) const {
  writer.varint(points.size());
  for (const auto& point : points) {
    writer.u8(static_cast<std::uint8_t>(point.kind));
    writer.str(point.name);
    encode_labels(writer, point.labels);
    writer.f64(point.value);
    if (point.kind == MetricKind::kHistogram) {
      writer.varint(point.bounds.size());
      for (double bound : point.bounds) writer.f64(bound);
      for (std::uint64_t bucket : point.buckets) writer.varint(bucket);
      writer.varint(point.count);
    }
  }
}

MetricsSnapshot MetricsSnapshot::decode(util::ByteReader& reader) {
  MetricsSnapshot snapshot;
  std::uint64_t n = reader.count();
  snapshot.points.reserve(n);
  for (std::uint64_t i = 0; i < n && reader.ok(); ++i) {
    MetricPoint point;
    std::uint8_t kind = reader.u8();
    if (kind < 1 || kind > 3) {
      reader.fail(util::make_error(util::ErrorCode::kInvalidArgument,
                                   "metrics snapshot: bad metric kind " +
                                       std::to_string(kind)));
      break;
    }
    point.kind = static_cast<MetricKind>(kind);
    point.name = reader.str();
    point.labels = decode_labels(reader);
    point.value = reader.f64();
    if (point.kind == MetricKind::kHistogram) {
      std::uint64_t n_bounds = reader.count();
      point.bounds.reserve(n_bounds);
      for (std::uint64_t b = 0; b < n_bounds; ++b)
        point.bounds.push_back(reader.f64());
      point.buckets.reserve(n_bounds + 1);
      for (std::uint64_t b = 0; b < n_bounds + 1; ++b)
        point.buckets.push_back(reader.varint());
      point.count = reader.varint();
    }
    snapshot.points.push_back(std::move(point));
  }
  return snapshot;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  std::string last_name;
  for (const auto& point : points) {
    if (point.name != last_name) {
      const char* type = point.kind == MetricKind::kCounter   ? "counter"
                         : point.kind == MetricKind::kGauge   ? "gauge"
                                                              : "histogram";
      out += "# TYPE " + point.name + " " + type + "\n";
      last_name = point.name;
    }
    if (point.kind == MetricKind::kHistogram) {
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < point.buckets.size(); ++b) {
        cumulative += point.buckets[b];
        std::string le = b < point.bounds.size()
                             ? format_value(point.bounds[b])
                             : "+Inf";
        out += point.name + "_bucket" + render_labels(point.labels, "le", le) +
               " " + std::to_string(cumulative) + "\n";
      }
      out += point.name + "_sum" + render_labels(point.labels) + " " +
             format_value(point.value) + "\n";
      out += point.name + "_count" + render_labels(point.labels) + " " +
             std::to_string(point.count) + "\n";
    } else {
      out += point.name + render_labels(point.labels) + " " +
             format_value(point.value) + "\n";
    }
  }
  return out;
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[{std::string(name), sorted(std::move(labels))}];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[{std::string(name), sorted(std::move(labels))}];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(std::string_view name, Labels labels,
                                      std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[{std::string(name), sorted(std::move(labels))}];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard lock(mutex_);
  snapshot.points.reserve(counters_.size() + gauges_.size() +
                          histograms_.size());
  for (const auto& [key, counter] : counters_) {
    MetricPoint point;
    point.kind = MetricKind::kCounter;
    point.name = key.first;
    point.labels = key.second;
    point.value = counter->value();
    snapshot.points.push_back(std::move(point));
  }
  for (const auto& [key, gauge] : gauges_) {
    MetricPoint point;
    point.kind = MetricKind::kGauge;
    point.name = key.first;
    point.labels = key.second;
    point.value = gauge->value();
    snapshot.points.push_back(std::move(point));
  }
  for (const auto& [key, histogram] : histograms_) {
    MetricPoint point;
    point.kind = MetricKind::kHistogram;
    point.name = key.first;
    point.labels = key.second;
    point.value = histogram->sum();
    point.bounds = histogram->bounds();
    point.buckets = histogram->bucket_counts();
    point.count = histogram->count();
    snapshot.points.push_back(std::move(point));
  }
  std::sort(snapshot.points.begin(), snapshot.points.end(),
            [](const MetricPoint& a, const MetricPoint& b) {
              return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
            });
  return snapshot;
}

}  // namespace unicore::obs
