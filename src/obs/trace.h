// Per-job trace timelines.
//
// The NJS records one span per lifecycle phase of a consigned AJO —
// consign, incarnate, stage-in, submit, queue-wait, batch-run,
// stage-out, outcome, and sub-AJO hops over PeerLink — against
// simulation time. Spans nest: every child lies inside its parent's
// [start, end] window, giving the JMC (and tests) a causally ordered
// picture of where a job's wall-clock went.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "util/bytes.h"
#include "util/result.h"

namespace unicore::obs {

/// 1-based index into TraceTimeline::spans(); 0 means "no span".
using SpanId = std::uint32_t;

struct Span {
  SpanId id = 0;
  SpanId parent = 0;  // 0 = root span
  std::string name;
  sim::Time start = 0;
  sim::Time end = -1;  // -1 while still open
  std::vector<std::pair<std::string, std::string>> attributes;

  bool closed() const { return end >= 0; }
};

class TraceTimeline {
 public:
  /// Opens a span at `at`; close it later with end().
  SpanId begin(std::string name, sim::Time at, SpanId parent = 0);
  /// Closes an open span. No-op for invalid ids or already-closed spans.
  void end(SpanId id, sim::Time at);
  /// Records an already-finished span (used for phases whose bounds are
  /// only known after the fact, e.g. batch queue-wait).
  SpanId record(std::string name, sim::Time start, sim::Time end,
                SpanId parent = 0);
  void annotate(SpanId id, std::string key, std::string value);

  const std::vector<Span>& spans() const { return spans_; }
  bool empty() const { return spans_.empty(); }
  const Span* find(SpanId id) const;
  /// First span with `name`, or nullptr.
  const Span* find_by_name(std::string_view name) const;
  std::vector<const Span*> children_of(SpanId parent) const;

  /// Structural invariants: every span closed with end >= start, parents
  /// exist and precede their children, and every child's window lies
  /// inside its parent's.
  util::Status validate() const;

  void encode(util::ByteWriter& writer) const;
  static TraceTimeline decode(util::ByteReader& reader);

  /// Indented tree rendering for logs and debugging.
  std::string to_string() const;

 private:
  std::vector<Span> spans_;
};

}  // namespace unicore::obs
