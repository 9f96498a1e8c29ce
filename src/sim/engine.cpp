#include "sim/engine.h"

#include <utility>

namespace unicore::sim {

EventId Engine::at(Time t, std::function<void()> fn) {
  if (t < now_) t = now_;
  auto index = static_cast<std::uint32_t>(slots_.size());
  if (free_.empty()) {
    slots_.emplace_back();
  } else {
    index = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  heap_.push(Entry{t, next_seq_++, index, slot.generation});
  return static_cast<EventId>(slot.generation) << 32 | index;
}

void Engine::release(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn = nullptr;
  if (++slot.generation == 0) slot.generation = 1;
  free_.push_back(index);
}

bool Engine::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (index >= slots_.size() || slots_[index].generation != generation)
    return false;
  release(index);
  return true;
}

bool Engine::step() {
  while (!heap_.empty()) {
    Entry top = heap_.top();
    heap_.pop();
    if (!live(top)) continue;  // cancelled
    std::function<void()> fn = std::move(slots_[top.slot].fn);
    release(top.slot);
    now_ = top.time;
    ++fired_;
    fn();
    return true;
  }
  return false;
}

std::size_t Engine::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t Engine::run_until(Time deadline) {
  std::size_t n = 0;
  for (;;) {
    // Skip cancelled entries to observe the true next event time.
    while (!heap_.empty() && !live(heap_.top())) heap_.pop();
    if (heap_.empty() || heap_.top().time > deadline) break;
    if (step()) ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace unicore::sim
