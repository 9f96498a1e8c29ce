// Discrete-event simulation kernel.
//
// All distributed behaviour in the reproduction — network latency, batch
// queue waits, job runtimes, NJS polling — runs as events on one Engine.
// Execution is single-threaded and deterministic: events fire in
// (time, insertion-sequence) order, so a given seed always produces the
// same trace. Virtual time is kept in microseconds as a signed 64-bit
// count, which spans ±292k years — enough for any batch queue.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace unicore::sim {

/// Virtual time in microseconds since simulation start.
using Time = std::int64_t;

/// Convenience constructors for readable durations.
constexpr Time usec(std::int64_t n) { return n; }
constexpr Time msec(std::int64_t n) { return n * 1000; }
constexpr Time sec(std::int64_t n) { return n * 1'000'000; }
constexpr Time minutes(std::int64_t n) { return n * 60'000'000; }
constexpr Time hours(std::int64_t n) { return n * 3'600'000'000LL; }

/// Seconds as double → Time, for stochastic durations.
constexpr Time from_seconds(double s) {
  return static_cast<Time>(s * 1'000'000.0);
}
constexpr double to_seconds(Time t) { return static_cast<double>(t) / 1e6; }

/// Handle for cancelling a scheduled event.
using EventId = std::uint64_t;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (clamped to now()).
  EventId at(Time t, std::function<void()> fn);

  /// Schedules `fn` `dt` after now().
  EventId after(Time dt, std::function<void()> fn) {
    return at(now_ + (dt < 0 ? 0 : dt), std::move(fn));
  }

  /// Cancels a pending event; returns false if it already fired, is
  /// firing now (a cancel from inside its own handler), or was already
  /// cancelled.
  bool cancel(EventId id);

  /// Fires the next pending event; returns false when the queue is empty.
  bool step();

  /// Runs to quiescence; returns the number of events fired.
  std::size_t run();

  /// Runs events with time <= `deadline`, then sets now() to `deadline`
  /// (if the simulation had not already passed it). Returns events fired.
  std::size_t run_until(Time deadline);

  std::size_t pending() const { return handlers_.size(); }
  std::uint64_t events_fired() const { return fired_; }

 private:
  struct Entry {
    Time time;
    EventId id;
    bool operator>(const Entry& other) const {
      // Earlier time first; FIFO among equal times via ascending id.
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };

  Time now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t fired_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  /// Handlers of the events still to fire. cancel() erases the handler
  /// and leaves the heap entry behind; an entry without a handler is a
  /// cancelled event, skipped when it reaches the head.
  std::unordered_map<EventId, std::function<void()>> handlers_;
};

}  // namespace unicore::sim
