#include "obs/trace.h"

#include <functional>

namespace unicore::obs {

SpanId TraceTimeline::begin(std::string name, sim::Time at, SpanId parent) {
  Span span;
  span.id = static_cast<SpanId>(spans_.size() + 1);
  span.parent = parent;
  span.name = std::move(name);
  span.start = at;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void TraceTimeline::end(SpanId id, sim::Time at) {
  if (id == 0 || id > spans_.size()) return;
  Span& span = spans_[id - 1];
  if (!span.closed()) span.end = at;
}

SpanId TraceTimeline::record(std::string name, sim::Time start, sim::Time end,
                             SpanId parent) {
  SpanId id = begin(std::move(name), start, parent);
  spans_[id - 1].end = end;
  return id;
}

void TraceTimeline::annotate(SpanId id, std::string key, std::string value) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].attributes.emplace_back(std::move(key), std::move(value));
}

const Span* TraceTimeline::find(SpanId id) const {
  if (id == 0 || id > spans_.size()) return nullptr;
  return &spans_[id - 1];
}

const Span* TraceTimeline::find_by_name(std::string_view name) const {
  for (const Span& span : spans_)
    if (span.name == name) return &span;
  return nullptr;
}

std::vector<const Span*> TraceTimeline::children_of(SpanId parent) const {
  std::vector<const Span*> children;
  for (const Span& span : spans_)
    if (span.parent == parent && span.id != parent) children.push_back(&span);
  return children;
}

util::Status TraceTimeline::validate() const {
  for (const Span& span : spans_) {
    if (!span.closed())
      return util::make_error(util::ErrorCode::kFailedPrecondition,
                              "span still open: " + span.name);
    if (span.end < span.start)
      return util::make_error(util::ErrorCode::kInternal,
                              "span ends before it starts: " + span.name);
    if (span.parent != 0) {
      // Children are always recorded after their parent opened.
      if (span.parent >= span.id)
        return util::make_error(util::ErrorCode::kInternal,
                                "span precedes its parent: " + span.name);
      const Span& parent = spans_[span.parent - 1];
      if (span.start < parent.start ||
          (parent.closed() && span.end > parent.end))
        return util::make_error(
            util::ErrorCode::kInternal,
            "span escapes parent window: " + span.name + " in " + parent.name);
    }
  }
  return util::Status::ok_status();
}

void TraceTimeline::encode(util::ByteWriter& writer) const {
  writer.varint(spans_.size());
  for (const Span& span : spans_) {
    writer.varint(span.id);
    writer.varint(span.parent);
    writer.str(span.name);
    writer.i64(span.start);
    writer.i64(span.end);
    writer.varint(span.attributes.size());
    for (const auto& [key, value] : span.attributes) {
      writer.str(key);
      writer.str(value);
    }
  }
}

TraceTimeline TraceTimeline::decode(util::ByteReader& reader) {
  TraceTimeline timeline;
  std::uint64_t n = reader.count();
  timeline.spans_.reserve(n);
  for (std::uint64_t i = 0; i < n && reader.ok(); ++i) {
    Span span;
    span.id = static_cast<SpanId>(reader.varint());
    span.parent = static_cast<SpanId>(reader.varint());
    span.name = reader.str();
    span.start = reader.i64();
    span.end = reader.i64();
    if (span.id != i + 1) {
      reader.fail(util::make_error(util::ErrorCode::kInvalidArgument,
                                   "trace timeline: non-contiguous span ids"));
      break;
    }
    std::uint64_t n_attrs = reader.count();
    span.attributes.reserve(n_attrs);
    for (std::uint64_t a = 0; a < n_attrs; ++a) {
      std::string key = reader.str();
      std::string value = reader.str();
      span.attributes.emplace_back(std::move(key), std::move(value));
    }
    timeline.spans_.push_back(std::move(span));
  }
  return timeline;
}

std::string TraceTimeline::to_string() const {
  std::string out;
  std::function<void(SpanId, int)> render = [&](SpanId parent, int depth) {
    for (const Span& span : spans_) {
      if (span.parent != parent || span.id == parent) continue;
      out.append(static_cast<std::size_t>(depth) * 2, ' ');
      out += span.name + " [" + std::to_string(span.start) + ", " +
             (span.closed() ? std::to_string(span.end) : std::string("open")) +
             "]";
      for (const auto& [key, value] : span.attributes)
        out += " " + key + "=" + value;
      out += "\n";
      render(span.id, depth + 1);
    }
  };
  render(0, 0);
  return out;
}

}  // namespace unicore::obs
