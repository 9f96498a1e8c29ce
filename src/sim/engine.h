// Discrete-event simulation kernel.
//
// All distributed behaviour in the reproduction — network latency, batch
// queue waits, job runtimes, NJS polling — runs as events on one Engine.
// Execution is single-threaded and deterministic: events fire in
// (time, insertion-sequence) order, so a given seed always produces the
// same trace. Virtual time is kept in microseconds as a signed 64-bit
// count, which spans ±292k years — enough for any batch queue.
//
// Scheduling an event allocates nothing once the engine is warm: each
// handler lives in a slot of one vector, reused through a free list, and
// the heap holds plain (time, sequence, slot, generation) entries. A
// slot's generation moves on every time its event fires or is cancelled,
// so a heap entry or an EventId from an earlier occupant no longer
// matches and names nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
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

/// Handle for cancelling a scheduled event: (generation << 32 | slot),
/// generation ≥ 1, so 0 never names an event.
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
  /// cancelled — also when its slot has since been reused by another
  /// event, which the cancel leaves alone.
  bool cancel(EventId id);

  /// Fires the next pending event; returns false when the queue is empty.
  bool step();

  /// Runs to quiescence; returns the number of events fired.
  std::size_t run();

  /// Runs events with time <= `deadline`, then sets now() to `deadline`
  /// (if the simulation had not already passed it). Returns events fired.
  std::size_t run_until(Time deadline);

  std::size_t pending() const { return slots_.size() - free_.size(); }
  std::uint64_t events_fired() const { return fired_; }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;  // FIFO among equal times
    std::uint32_t slot;
    std::uint32_t generation;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };
  struct Slot {
    std::function<void()> fn;
    /// The occupant's generation while the slot holds an event; while it
    /// is free, the next occupant's, which no EventId carries yet.
    std::uint32_t generation = 1;
  };

  /// A heap entry whose slot has moved on to a later generation is a
  /// cancelled event, or one whose slot was reused; it is skipped.
  bool live(const Entry& entry) const {
    return slots_[entry.slot].generation == entry.generation;
  }
  /// Empties `slot`, advances its generation and returns it to the free
  /// list.
  void release(std::uint32_t slot);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace unicore::sim
