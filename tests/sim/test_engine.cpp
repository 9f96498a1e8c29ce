#include "sim/engine.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace unicore::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(Engine, FiresEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.at(sec(3), [&] { order.push_back(3); });
  engine.at(sec(1), [&] { order.push_back(1); });
  engine.at(sec(2), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), sec(3));
}

TEST(Engine, FifoAmongEqualTimes) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    engine.at(sec(5), [&order, i] { order.push_back(i); });
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, AfterSchedulesRelative) {
  Engine engine;
  Time observed = -1;
  engine.at(sec(10), [&] {
    engine.after(sec(5), [&] { observed = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(observed, sec(15));
}

TEST(Engine, PastTimesClampToNow) {
  Engine engine;
  Time observed = -1;
  engine.at(sec(10), [&] {
    engine.at(sec(1), [&] { observed = engine.now(); });  // in the past
  });
  engine.run();
  EXPECT_EQ(observed, sec(10));
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine engine;
  Time observed = -1;
  engine.after(-100, [&] { observed = engine.now(); });
  engine.run();
  EXPECT_EQ(observed, 0);
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  EventId id = engine.at(sec(1), [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // second cancel reports failure
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, PendingDropsOnCancelAndSelfCancelReportsFalse) {
  Engine engine;
  EventId first = engine.at(sec(1), [] {});
  engine.at(sec(2), [] {});
  EXPECT_EQ(engine.pending(), 2u);
  EXPECT_TRUE(engine.cancel(first));
  EXPECT_EQ(engine.pending(), 1u);
  EventId self = 0;
  std::optional<bool> self_cancel;
  std::size_t pending_inside = 0;
  self = engine.at(sec(3), [&] {
    self_cancel = engine.cancel(self);
    pending_inside = engine.pending();
  });
  EXPECT_EQ(engine.pending(), 2u);
  EXPECT_EQ(engine.run(), 2u);
  ASSERT_TRUE(self_cancel.has_value());
  EXPECT_FALSE(*self_cancel);  // the firing event is no longer pending
  EXPECT_EQ(pending_inside, 0u);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.events_fired(), 2u);
}

TEST(Engine, CancelAfterFireReportsFalse) {
  Engine engine;
  EventId id = engine.at(sec(1), [] {});
  engine.run();
  EXPECT_FALSE(engine.cancel(id));
}

TEST(Engine, RunReturnsEventCount) {
  Engine engine;
  for (int i = 0; i < 7; ++i) engine.at(sec(i), [] {});
  EXPECT_EQ(engine.run(), 7u);
  EXPECT_EQ(engine.events_fired(), 7u);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine engine;
  std::vector<Time> fired;
  for (int i = 1; i <= 10; ++i)
    engine.at(sec(i), [&fired, &engine] { fired.push_back(engine.now()); });
  std::size_t n = engine.run_until(sec(5));
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(engine.now(), sec(5));
  EXPECT_EQ(engine.pending(), 5u);
  engine.run();
  EXPECT_EQ(fired.size(), 10u);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine engine;
  engine.run_until(sec(100));
  EXPECT_EQ(engine.now(), sec(100));
}

TEST(Engine, RunUntilSkipsCancelledHead) {
  Engine engine;
  bool fired = false;
  EventId id = engine.at(sec(1), [&] { fired = true; });
  engine.at(sec(2), [] {});
  engine.cancel(id);
  std::size_t n = engine.run_until(sec(3));
  EXPECT_EQ(n, 1u);
  EXPECT_FALSE(fired);
}

TEST(Engine, EventsScheduledDuringRunAreProcessed) {
  Engine engine;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) engine.after(msec(1), chain);
  };
  engine.after(0, chain);
  engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(engine.now(), msec(99));
}

TEST(DurationHelpers, Conversions) {
  EXPECT_EQ(msec(1), 1000);
  EXPECT_EQ(sec(1), 1'000'000);
  EXPECT_EQ(minutes(2), 120'000'000);
  EXPECT_EQ(hours(1), 3'600'000'000LL);
  EXPECT_EQ(from_seconds(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(to_seconds(sec(3)), 3.0);
}

}  // namespace
}  // namespace unicore::sim
