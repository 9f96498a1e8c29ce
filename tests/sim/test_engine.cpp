#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
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

// An EventId is (generation << 32 | slot); these helpers read it back.
std::uint32_t slot_of(EventId id) { return static_cast<std::uint32_t>(id); }

TEST(Engine, FiredIdNeverCancelsTheEventThatReusesItsSlot) {
  Engine engine;
  EventId fired = engine.at(sec(1), [] {});
  engine.run();
  bool later_fired = false;
  EventId reuser = engine.at(sec(2), [&] { later_fired = true; });
  ASSERT_EQ(slot_of(reuser), slot_of(fired));
  EXPECT_NE(reuser, fired);
  EXPECT_FALSE(engine.cancel(fired));
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_TRUE(later_fired);
}

TEST(Engine, CancelledIdNeverCancelsTheEventThatReusesItsSlot) {
  Engine engine;
  EventId cancelled = engine.at(sec(1), [] {});
  ASSERT_TRUE(engine.cancel(cancelled));
  std::vector<Time> fired_at;
  EventId reuser =
      engine.at(sec(5), [&] { fired_at.push_back(engine.now()); });
  ASSERT_EQ(slot_of(reuser), slot_of(cancelled));
  EXPECT_FALSE(engine.cancel(cancelled));
  EXPECT_EQ(engine.pending(), 1u);
  // The cancelled event's heap entry (t = 1 s) still names the reused
  // slot; it must not fire the new occupant early.
  EXPECT_EQ(engine.run_until(sec(2)), 0u);
  EXPECT_TRUE(fired_at.empty());
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(fired_at, (std::vector<Time>{sec(5)}));
  EXPECT_FALSE(engine.cancel(reuser));
}

TEST(Engine, CancelZeroIsFalse) {
  Engine engine;
  EXPECT_FALSE(engine.cancel(0));
  EventId id = engine.at(sec(1), [] {});
  EXPECT_NE(id, 0u);
  EXPECT_FALSE(engine.cancel(0));
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_EQ(engine.run(), 1u);
}

TEST(Engine, PendingAndFifoHoldAcrossSlotReuse) {
  Engine engine;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i)
    ids.push_back(engine.at(sec(1), [&order, i] { order.push_back(i); }));
  // Free every other slot; the free list hands them back in a different
  // order from the one they were first taken in.
  for (int i = 0; i < 10; i += 2)
    EXPECT_TRUE(engine.cancel(ids[static_cast<std::size_t>(i)]));
  EXPECT_EQ(engine.pending(), 5u);
  for (int i = 10; i < 20; ++i) {
    engine.at(sec(1), [&order, i] { order.push_back(i); });
    EXPECT_EQ(engine.pending(), static_cast<std::size_t>(i - 4));
  }
  EXPECT_EQ(engine.pending(), 15u);
  EXPECT_EQ(engine.run(), 15u);
  EXPECT_EQ(engine.pending(), 0u);
  std::vector<int> expected{1, 3, 5, 7, 9};
  for (int i = 10; i < 20; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
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
