// Per-host delivery reactor.
//
// The fabric used to schedule one simulation event per in-flight message,
// so a busy server paid one callback dispatch per record. The reactor
// replaces that with an event loop per destination host: arrivals are
// queued in (arrival-time, sequence) order and a single engine tick —
// scheduled for the earliest pending arrival — drains every message whose
// arrival time has been reached. Consecutive messages for the same
// endpoint are handed over as one batch, which is what makes the batched
// record path in SecureChannel effective: one tick, one batch, one pass
// over the ciphertext.
//
// Delivery *times* are unchanged relative to per-message scheduling: a
// tick always fires exactly at the earliest queued arrival, and entries
// with later arrival times stay queued for a later tick. Ordering within
// a host is the (arrival, sequence) order, i.e. FIFO with respect to the
// link model. Close notices travel through the same queue as data, which
// makes the "close may not overtake data" contract structural.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.h"
#include "util/bytes.h"

namespace unicore::net {

class Endpoint;
class Network;

class Reactor {
 public:
  /// One queued arrival: either a data message or a close notice
  /// (payload empty, `is_close` set).
  struct Item {
    sim::Time arrival = 0;
    std::uint64_t seq = 0;
    bool is_close = false;
    std::weak_ptr<Endpoint> target;
    std::weak_ptr<Endpoint> sender;
    util::Bytes payload;
  };

  Reactor(sim::Engine& engine, Network& network)
      : engine_(engine), network_(network) {}

  void enqueue_message(sim::Time arrival, std::weak_ptr<Endpoint> target,
                       std::weak_ptr<Endpoint> sender, util::Bytes payload);
  void enqueue_close(sim::Time arrival, std::weak_ptr<Endpoint> target);

  std::size_t pending() const { return heap_.size(); }

  /// Ticks that dispatched at least one item.
  std::uint64_t ticks() const { return ticks_; }
  /// Batches handed to endpoints (a batch is a maximal run of consecutive
  /// ready messages for one endpoint).
  std::uint64_t batches_dispatched() const { return batches_dispatched_; }
  /// Messages dispatched across all batches.
  std::uint64_t messages_dispatched() const { return messages_dispatched_; }

 private:
  void push(Item item);
  void schedule_tick(sim::Time at);
  void tick();

  // Min-heap on (arrival, seq): seq breaks ties so equal-time arrivals
  // keep their enqueue order.
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.arrival != b.arrival) return a.arrival > b.arrival;
      return a.seq > b.seq;
    }
  };

  sim::Engine& engine_;
  Network& network_;
  std::vector<Item> heap_;
  // Scratch for tick(): the items it drains and the run it dispatches.
  std::vector<Item> ready_;
  std::vector<Item> batch_;
  std::uint64_t next_seq_ = 0;
  // Time of the currently scheduled tick, or -1 when none is pending.
  sim::Time scheduled_at_ = -1;
  std::uint64_t ticks_ = 0;
  std::uint64_t batches_dispatched_ = 0;
  std::uint64_t messages_dispatched_ = 0;
};

}  // namespace unicore::net
