#include "net/reactor.h"

#include <algorithm>
#include <utility>

#include "net/network.h"

namespace unicore::net {

void Reactor::enqueue_message(sim::Time arrival,
                              std::weak_ptr<Endpoint> target,
                              std::weak_ptr<Endpoint> sender,
                              util::Bytes payload) {
  Item item;
  item.arrival = arrival;
  item.seq = next_seq_++;
  item.target = std::move(target);
  item.sender = std::move(sender);
  item.payload = std::move(payload);
  push(std::move(item));
}

void Reactor::enqueue_close(sim::Time arrival,
                            std::weak_ptr<Endpoint> target) {
  Item item;
  item.arrival = arrival;
  item.seq = next_seq_++;
  item.is_close = true;
  item.target = std::move(target);
  push(std::move(item));
}

void Reactor::push(Item item) {
  sim::Time arrival = item.arrival;
  heap_.push_back(std::move(item));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  schedule_tick(arrival);
}

void Reactor::schedule_tick(sim::Time at) {
  // A tick is kept scheduled for the earliest pending arrival. An already
  // scheduled later tick is left in place (it becomes a cheap no-op: by
  // the time it fires everything it would have drained is gone or it
  // re-schedules itself), so no engine cancellation is needed.
  if (scheduled_at_ >= 0 && scheduled_at_ <= at) return;
  scheduled_at_ = at;
  engine_.at(at, [this, at] {
    if (scheduled_at_ == at) scheduled_at_ = -1;
    tick();
  });
}

void Reactor::tick() {
  // The scratch vectors are taken for the tick and handed back after it,
  // cleared but with their capacity: a handler that runs a nested tick
  // takes empty ones instead of the ones this tick is walking.
  std::vector<Item> ready = std::exchange(ready_, {});
  std::vector<Item> batch = std::exchange(batch_, {});

  // Drain everything that has arrived by now, in (arrival, seq) order.
  while (!heap_.empty() && heap_.front().arrival <= engine_.now()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    ready.push_back(std::move(heap_.back()));
    heap_.pop_back();
  }
  if (!ready.empty()) {
    ++ticks_;

    // Group maximal runs of consecutive messages for the same endpoint
    // into one batch; closes flush the current run and dispatch singly.
    std::shared_ptr<Endpoint> current;
    auto flush = [&] {
      if (batch.empty()) return;
      ++batches_dispatched_;
      messages_dispatched_ += batch.size();
      network_.dispatch_batch(current, batch);
      batch.clear();
      current = nullptr;
    };
    for (Item& item : ready) {
      auto target = item.target.lock();
      if (item.is_close) {
        flush();
        if (target) network_.dispatch_close(target);
        continue;
      }
      if (target != current) flush();
      current = std::move(target);
      batch.push_back(std::move(item));
    }
    flush();
  }

  ready.clear();
  ready_ = std::move(ready);
  batch_ = std::move(batch);
  if (!heap_.empty()) schedule_tick(heap_.front().arrival);
}

}  // namespace unicore::net
