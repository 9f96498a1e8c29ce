#include "sim/engine.h"

#include <utility>

namespace unicore::sim {

EventId Engine::at(Time t, std::function<void()> fn) {
  if (t < now_) t = now_;
  EventId id = next_id_++;
  heap_.push(Entry{t, id});
  handlers_.emplace(id, std::move(fn));
  return id;
}

bool Engine::cancel(EventId id) { return handlers_.erase(id) != 0; }

bool Engine::step() {
  while (!heap_.empty()) {
    Entry top = heap_.top();
    heap_.pop();
    auto it = handlers_.find(top.id);
    if (it == handlers_.end()) continue;  // cancelled
    std::function<void()> fn = std::move(it->second);
    handlers_.erase(it);
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
    while (!heap_.empty() && !handlers_.count(heap_.top().id)) heap_.pop();
    if (heap_.empty() || heap_.top().time > deadline) break;
    if (step()) ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace unicore::sim
