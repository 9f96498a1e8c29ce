// TraceTimeline semantics: span creation, nesting invariants, the wire
// codec, and the validation rules the MonitorService relies on.
#include <gtest/gtest.h>

#include "obs/trace.h"

namespace unicore::obs {
namespace {

TEST(Trace, BeginEndRecordsWindow) {
  TraceTimeline timeline;
  SpanId root = timeline.begin("consign", sim::sec(1));
  EXPECT_EQ(root, 1u);
  EXPECT_FALSE(timeline.find(root)->closed());
  timeline.end(root, sim::sec(5));

  const Span* span = timeline.find(root);
  ASSERT_NE(span, nullptr);
  EXPECT_TRUE(span->closed());
  EXPECT_EQ(span->start, sim::sec(1));
  EXPECT_EQ(span->end, sim::sec(5));
  EXPECT_TRUE(timeline.validate().ok());
}

TEST(Trace, EndIsIdempotentAndIgnoresBadIds) {
  TraceTimeline timeline;
  SpanId span = timeline.begin("x", 0);
  timeline.end(span, sim::sec(2));
  timeline.end(span, sim::sec(9));  // already closed: no-op
  EXPECT_EQ(timeline.find(span)->end, sim::sec(2));
  timeline.end(0, sim::sec(1));   // invalid ids: no-op
  timeline.end(99, sim::sec(1));
  EXPECT_EQ(timeline.spans().size(), 1u);
}

TEST(Trace, ChildrenNestUnderParents) {
  TraceTimeline timeline;
  SpanId root = timeline.begin("consign", 0);
  SpanId submit = timeline.begin("submit", sim::sec(1), root);
  timeline.record("incarnate", sim::sec(1), sim::sec(1), submit);
  timeline.record("batch-run", sim::sec(2), sim::sec(8), submit);
  timeline.end(submit, sim::sec(9));
  timeline.end(root, sim::sec(10));

  EXPECT_TRUE(timeline.validate().ok());
  auto children = timeline.children_of(submit);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0]->name, "incarnate");
  EXPECT_EQ(children[1]->name, "batch-run");
  EXPECT_EQ(timeline.children_of(root).size(), 1u);

  const Span* by_name = timeline.find_by_name("batch-run");
  ASSERT_NE(by_name, nullptr);
  EXPECT_EQ(by_name->parent, submit);
}

TEST(Trace, AnnotationsAttachToSpans) {
  TraceTimeline timeline;
  SpanId span = timeline.begin("consign", 0);
  timeline.annotate(span, "job", "pipeline");
  timeline.annotate(span, "status", "successful");
  const Span* found = timeline.find(span);
  ASSERT_EQ(found->attributes.size(), 2u);
  EXPECT_EQ(found->attributes[0].first, "job");
  EXPECT_EQ(found->attributes[1].second, "successful");
}

TEST(TraceValidate, RejectsOpenSpans) {
  TraceTimeline timeline;
  timeline.begin("never-closed", 0);
  EXPECT_FALSE(timeline.validate().ok());
}

TEST(TraceValidate, RejectsEndBeforeStart) {
  TraceTimeline timeline;
  timeline.record("backwards", sim::sec(5), sim::sec(3));
  EXPECT_FALSE(timeline.validate().ok());
}

TEST(TraceValidate, RejectsParentThatDoesNotPrecedeChild) {
  TraceTimeline timeline;
  timeline.record("orphan", 0, sim::sec(1), /*parent=*/5);
  EXPECT_FALSE(timeline.validate().ok());
}

TEST(TraceValidate, RejectsChildEscapingParentWindow) {
  TraceTimeline timeline;
  SpanId parent = timeline.record("parent", 0, sim::sec(10));
  timeline.record("escapes", sim::sec(5), sim::sec(15), parent);
  EXPECT_FALSE(timeline.validate().ok());
}

TEST(Trace, WireRoundTrip) {
  TraceTimeline timeline;
  SpanId root = timeline.begin("consign", sim::msec(100));
  timeline.annotate(root, "user", "CN=Jane Doe");
  SpanId submit = timeline.begin("submit", sim::sec(1), root);
  timeline.record("queue-wait", sim::sec(1), sim::sec(3), submit);
  timeline.end(submit, sim::sec(4));
  timeline.end(root, sim::sec(5));

  util::ByteWriter writer;
  timeline.encode(writer);
  util::Bytes wire = writer.take();

  util::ByteReader reader{wire};
  TraceTimeline decoded = TraceTimeline::decode(reader);
  ASSERT_TRUE(reader.ok()) << reader.finish().to_string();
  ASSERT_EQ(decoded.spans().size(), 3u);
  EXPECT_TRUE(decoded.validate().ok());

  const Span& decoded_root = decoded.spans()[0];
  EXPECT_EQ(decoded_root.name, "consign");
  EXPECT_EQ(decoded_root.start, sim::msec(100));
  EXPECT_EQ(decoded_root.end, sim::sec(5));
  ASSERT_EQ(decoded_root.attributes.size(), 1u);
  EXPECT_EQ(decoded_root.attributes[0].second, "CN=Jane Doe");
  EXPECT_EQ(decoded.spans()[2].parent, submit);
}

TEST(Trace, ToStringRendersTree) {
  TraceTimeline timeline;
  SpanId root = timeline.begin("consign", 0);
  timeline.begin("submit", sim::sec(1), root);
  std::string text = timeline.to_string();
  EXPECT_NE(text.find("consign"), std::string::npos);
  EXPECT_NE(text.find("submit"), std::string::npos);
}

}  // namespace
}  // namespace unicore::obs
