// Shared plumbing of the grid benchmark: options, wall/CPU clocks, the
// in-memory span recorder, order statistics, registry readers with the
// missing-series guard, and the per-round result every workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace gridbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// "full" is the benchmark; "tiny" is the determinism-test size.
  bool tiny = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_out;
};

double wall_now();  // steady clock, seconds
double cpu_now();   // process user+system CPU, seconds
double peak_rss_mib();

// --- spans -------------------------------------------------------------

/// One timed call the benchmark made into a layer. `parent` indexes the
/// enclosing span (-1 at top level); `job` is the job sequence number or
/// 0 when the call serves no single job.
struct Span {
  const char* name;
  double start;
  double end;
  std::int32_t parent;
  std::uint64_t job;
};

/// Keeps spans in memory; written out once, at exit. A disabled tracer
/// records nothing and costs one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  std::int32_t begin(const char* name, std::uint64_t job);
  void end(std::int32_t index);

  /// Sum of self time (duration minus the part child spans cover) over
  /// every span whose name is not `excluded`.
  double self_seconds_except(std::string_view excluded) const;
  std::vector<double> durations(std::string_view name) const;
  void write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t job = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        index_(tracer_ ? tracer_->begin(name, job) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

// --- statistics ----------------------------------------------------------

/// Nearest-rank quantile of `values` (q in [0,1]); 0 for an empty set.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

// --- metrics registry ------------------------------------------------------

/// Sum across label sets of `name` (counter/gauge value, or histogram
/// observation count). Aborts the run when the series is absent: a
/// renamed series must fail loudly, never read as 0.
double require_total(const unicore::obs::MetricsSnapshot& snapshot,
                     std::string_view name);
/// Same, restricted to points carrying label `key`=`value`.
double require_labeled(const unicore::obs::MetricsSnapshot& snapshot,
                       std::string_view name, std::string_view key,
                       std::string_view value);
/// For series the code registers only when the event first happens
/// (retransmits, refused resumptions): absent legitimately means 0.
double optional_total(const unicore::obs::MetricsSnapshot& snapshot,
                      std::string_view name);
double optional_labeled(const unicore::obs::MetricsSnapshot& snapshot,
                        std::string_view name, std::string_view key,
                        std::string_view value);
/// Quantile of histogram `name` with buckets merged across label sets,
/// interpolated linearly inside the bucket. Aborts when absent.
double require_histogram_quantile(
    const unicore::obs::MetricsSnapshot& snapshot, std::string_view name,
    double q);
/// Every counter and histogram count, summed per series name — the
/// registry fingerprint the determinism test compares.
std::map<std::string, double> registry_counts(
    const unicore::obs::MetricsSnapshot& snapshot);

// --- results ---------------------------------------------------------------

/// What one round (set-up plus timed phase) of a workload reports.
struct RoundResult {
  double setup_s = 0;
  double wall_s = 0;  // the timed phase
  double cpu_s = 0;
  /// Wall-clock end-to-end metrics of this round.
  std::map<std::string, double> rates;
  /// Virtual-time end-to-end metrics (identical for a given seed).
  std::map<std::string, double> virtual_metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Hex digest over the generated inputs.
  std::string input_digest;
  std::map<std::string, double> counts;
  /// Per-layer metrics; filled only by a traced round.
  std::map<std::string, double> layers;
};

/// Hex rendering of a 64-bit FNV-1a accumulator over input bytes.
class InputDigest {
 public:
  void add(std::string_view text);
  void add(std::uint64_t value);
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace gridbench
