// MetricsRegistry semantics: counter/gauge/histogram recording, label
// canonicalisation, snapshot lookup, the wire codec, and the
// Prometheus-style text render.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace unicore::obs {
namespace {

TEST(Counter, AddsAndIncrements) {
  MetricsRegistry registry;
  Counter& c = registry.counter("unicore_test_total");
  EXPECT_EQ(c.value(), 0.0);
  c.increment();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
}

TEST(Counter, ConcurrentAddsDoNotLoseUpdates) {
  MetricsRegistry registry;
  Counter& c = registry.counter("unicore_test_total");
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.increment();
    });
  for (auto& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(c.value(), kThreads * kAddsPerThread);
}

TEST(Gauge, MovesBothDirections) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("unicore_test_depth");
  g.set(5.0);
  g.add(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set(0.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, BucketBoundsAreUpperInclusive) {
  Histogram h({1.0, 5.0});
  h.observe(0.5);  // <= 1.0
  h.observe(1.0);  // <= 1.0 (inclusive)
  h.observe(3.0);  // <= 5.0
  h.observe(5.0);  // <= 5.0 (inclusive)
  h.observe(7.0);  // overflow

  std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.5);
}

TEST(RegistryTest, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry registry;
  Counter& a = registry.counter("unicore_test_total",
                                {{"usite", "FZJ"}, {"result", "ok"}});
  Counter& b = registry.counter("unicore_test_total",
                                {{"result", "ok"}, {"usite", "FZJ"}});
  EXPECT_EQ(&a, &b);
  a.increment();

  MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.points.size(), 1u);
  const MetricPoint* point = snapshot.find(
      "unicore_test_total", {{"result", "ok"}, {"usite", "FZJ"}});
  ASSERT_NE(point, nullptr);
  EXPECT_DOUBLE_EQ(point->value, 1.0);
}

TEST(RegistryTest, ReRegisteringHistogramKeepsFirstBounds) {
  MetricsRegistry registry;
  Histogram& first = registry.histogram("unicore_test_seconds", {}, {1.0});
  first.observe(0.5);
  Histogram& second =
      registry.histogram("unicore_test_seconds", {}, {9.0, 99.0});
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.bounds(), std::vector<double>({1.0}));
  EXPECT_EQ(second.count(), 1u);
}

TEST(SnapshotTest, TotalSumsAcrossLabelSets) {
  MetricsRegistry registry;
  registry.counter("unicore_jobs_total", {{"usite", "FZJ"}}).add(3);
  registry.counter("unicore_jobs_total", {{"usite", "LRZ"}}).add(4);
  registry.histogram("unicore_wait_seconds", {}, {1.0}).observe(0.5);
  registry.histogram("unicore_wait_seconds", {}, {1.0}).observe(2.0);

  MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_DOUBLE_EQ(snapshot.total("unicore_jobs_total"), 7.0);
  // Histogram totals are observation counts.
  EXPECT_DOUBLE_EQ(snapshot.total("unicore_wait_seconds"), 2.0);
  EXPECT_DOUBLE_EQ(snapshot.total("unicore_absent"), 0.0);
}

TEST(SnapshotTest, WireRoundTrip) {
  MetricsRegistry registry;
  registry.counter("unicore_a_total", {{"usite", "FZJ"}}).add(41.5);
  registry.gauge("unicore_b_depth").set(-3.0);
  Histogram& h = registry.histogram("unicore_c_seconds",
                                    {{"vsite", "T3E"}}, {0.1, 1.0});
  h.observe(0.05);
  h.observe(10.0);

  MetricsSnapshot original = registry.snapshot();
  util::ByteWriter writer;
  original.encode(writer);
  util::Bytes wire = writer.take();

  util::ByteReader reader{wire};
  MetricsSnapshot decoded = MetricsSnapshot::decode(reader);
  ASSERT_TRUE(reader.ok()) << reader.finish().to_string();
  ASSERT_EQ(decoded.points.size(), original.points.size());

  const MetricPoint* counter =
      decoded.find("unicore_a_total", {{"usite", "FZJ"}});
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(counter->value, 41.5);

  const MetricPoint* gauge = decoded.find("unicore_b_depth", {});
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value, -3.0);

  const MetricPoint* histogram =
      decoded.find("unicore_c_seconds", {{"vsite", "T3E"}});
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->kind, MetricKind::kHistogram);
  EXPECT_EQ(histogram->bounds, std::vector<double>({0.1, 1.0}));
  EXPECT_EQ(histogram->buckets, std::vector<std::uint64_t>({1, 0, 1}));
  EXPECT_EQ(histogram->count, 2u);
  EXPECT_DOUBLE_EQ(histogram->value, 10.05);  // histogram sum
}

TEST(SnapshotTest, DecodeRejectsUnknownKind) {
  util::ByteWriter writer;
  writer.varint(1);
  writer.u8(9);  // no such MetricKind
  writer.str("unicore_bogus");
  writer.varint(0);  // no labels
  writer.f64(1.0);
  util::Bytes wire = writer.take();

  util::ByteReader reader{wire};
  (void)MetricsSnapshot::decode(reader);
  EXPECT_FALSE(reader.ok());
}

TEST(SnapshotTest, PrometheusRender) {
  MetricsRegistry registry;
  registry.counter("unicore_jobs_total", {{"usite", "FZJ"}}).add(2);
  registry.gauge("unicore_queue_depth").set(4);
  registry.histogram("unicore_wait_seconds", {}, {1.0}).observe(0.5);

  std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("# TYPE unicore_jobs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE unicore_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE unicore_wait_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("usite=\"FZJ\""), std::string::npos);
  EXPECT_NE(text.find("unicore_wait_seconds_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("unicore_wait_seconds_sum"), std::string::npos);
  EXPECT_NE(text.find("unicore_wait_seconds_count 1"), std::string::npos);
}

}  // namespace
}  // namespace unicore::obs
