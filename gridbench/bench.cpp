#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace gridbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) / 1e9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- spans -------------------------------------------------------------

std::int32_t Tracer::begin(const char* name, std::uint64_t job) {
  auto index = static_cast<std::int32_t>(spans_.size());
  std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, wall_now(), 0.0, parent, job});
  open_.push_back(index);
  return index;
}

void Tracer::end(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end = wall_now();
  // Spans close in LIFO order: every call site is a scoped guard.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

namespace {

std::vector<double> child_seconds(const std::vector<Span>& spans) {
  std::vector<double> children(spans.size(), 0.0);
  for (const Span& span : spans)
    if (span.parent >= 0)
      children[static_cast<std::size_t>(span.parent)] += span.end - span.start;
  return children;
}

}  // namespace

double Tracer::self_seconds_except(std::string_view excluded) const {
  std::vector<double> children = child_seconds(spans_);
  double total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (excluded != spans_[i].name)
      total += spans_[i].end - spans_[i].start - children[i];
  return total;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (name == span.name) out.push_back(span.end - span.start);
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "gridbench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "index\tname\tstart_us\tend_us\tparent\tjob\n";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof line, "%zu\t%s\t%.3f\t%.3f\t%d\t%llu\n", i,
                  span.name, (span.start - origin) * 1e6,
                  (span.end - origin) * 1e6, span.parent,
                  static_cast<unsigned long long>(span.job));
    out << line;
  }
}

// --- statistics ----------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// --- metrics registry ------------------------------------------------------

namespace {

[[noreturn]] void missing_series(std::string_view name) {
  std::fprintf(stderr,
               "gridbench: registry series '%.*s' is missing; a per-layer "
               "metric reads it (renamed or never registered?)\n",
               static_cast<int>(name.size()), name.data());
  std::exit(3);
}

double point_total(const unicore::obs::MetricPoint& point) {
  return point.kind == unicore::obs::MetricKind::kHistogram
             ? static_cast<double>(point.count)
             : point.value;
}

}  // namespace

double optional_total(const unicore::obs::MetricsSnapshot& snapshot,
                      std::string_view name) {
  double total = 0;
  for (const auto& point : snapshot.points)
    if (point.name == name) total += point_total(point);
  return total;
}

double require_total(const unicore::obs::MetricsSnapshot& snapshot,
                     std::string_view name) {
  bool found = false;
  double total = 0;
  for (const auto& point : snapshot.points)
    if (point.name == name) {
      found = true;
      total += point_total(point);
    }
  if (!found) missing_series(name);
  return total;
}

namespace {

double labeled_total(const unicore::obs::MetricsSnapshot& snapshot,
                     std::string_view name, std::string_view key,
                     std::string_view value, bool* found) {
  double total = 0;
  for (const auto& point : snapshot.points) {
    if (point.name != name) continue;
    *found = true;
    for (const auto& [k, v] : point.labels)
      if (k == key && v == value) total += point_total(point);
  }
  return total;
}

}  // namespace

double require_labeled(const unicore::obs::MetricsSnapshot& snapshot,
                       std::string_view name, std::string_view key,
                       std::string_view value) {
  bool found = false;
  double total = labeled_total(snapshot, name, key, value, &found);
  if (!found) missing_series(name);
  return total;
}

double optional_labeled(const unicore::obs::MetricsSnapshot& snapshot,
                        std::string_view name, std::string_view key,
                        std::string_view value) {
  bool found = false;
  return labeled_total(snapshot, name, key, value, &found);
}

double require_histogram_quantile(
    const unicore::obs::MetricsSnapshot& snapshot, std::string_view name,
    double q) {
  std::vector<double> bounds;
  std::vector<double> counts;
  for (const auto& point : snapshot.points) {
    if (point.name != name ||
        point.kind != unicore::obs::MetricKind::kHistogram)
      continue;
    if (bounds.empty()) {
      bounds = point.bounds;
      counts.assign(point.buckets.size(), 0.0);
    }
    for (std::size_t i = 0; i < point.buckets.size() && i < counts.size();
         ++i)
      counts[i] += static_cast<double>(point.buckets[i]);
  }
  if (counts.empty()) missing_series(name);
  double total = 0;
  for (double c : counts) total += c;
  if (total == 0) return 0;
  double target = q * total;
  double seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0 && seen + counts[i] >= target) {
      double lower = i == 0 ? 0.0 : bounds[i - 1];
      // The overflow bucket has no upper bound: report its floor.
      if (i >= bounds.size()) return lower;
      double upper = bounds[i];
      return lower + (upper - lower) * (target - seen) / counts[i];
    }
    seen += counts[i];
  }
  return bounds.empty() ? 0 : bounds.back();
}

std::map<std::string, double> registry_counts(
    const unicore::obs::MetricsSnapshot& snapshot) {
  std::map<std::string, double> counts;
  for (const auto& point : snapshot.points)
    if (point.kind != unicore::obs::MetricKind::kGauge)
      counts[point.name] += point_total(point);
  return counts;
}

// --- inputs ----------------------------------------------------------------

void InputDigest::add(std::string_view text) {
  for (unsigned char c : text) {
    state_ ^= c;
    state_ *= 0x100000001b3ULL;
  }
  add(static_cast<std::uint64_t>(text.size()));
}

void InputDigest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (value >> (8 * i)) & 0xff;
    state_ *= 0x100000001b3ULL;
  }
}

std::string InputDigest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

}  // namespace gridbench
