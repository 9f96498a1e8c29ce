#include "net/network.h"

#include <algorithm>

namespace unicore::net {

// Shared state between the two endpoints of a connection. Open-state is
// tracked per side: a close() shuts the closing side at once but the
// peer keeps receiving until the close notification — which may not
// overtake in-flight data — reaches it.
struct Endpoint::ConnectionState {
  Network* network = nullptr;
  LinkProfile link;
  bool open_a = true;  // initiator side
  bool open_b = true;  // acceptor side
  std::weak_ptr<Endpoint> side_a;  // initiator
  std::weak_ptr<Endpoint> side_b;  // acceptor
  /// One direction of the connection, resolved once at connect so a
  /// message looks no host pair up: the shared link queue it serializes
  /// through and the reactor of the host it delivers to.
  struct Route {
    Network::LinkQueue* queue = nullptr;
    Reactor* reactor = nullptr;
  };
  Route to_a;  // acceptor -> initiator
  Route to_b;  // initiator -> acceptor

  bool& side_open(bool initiator) { return initiator ? open_a : open_b; }
  const Route& route_from(bool initiator) const {
    return initiator ? to_b : to_a;
  }
};

void Endpoint::send(util::Bytes message) {
  if (!is_open()) return;
  bytes_sent_ += message.size();
  state_->network->transmit(*this, std::move(message));
}

void Endpoint::set_receiver(Receiver receiver) {
  receiver_ = std::move(receiver);
  while (receiver_ && !inbox_.empty()) {
    util::Bytes message = std::move(inbox_.front());
    inbox_.pop_front();
    receiver_(std::move(message));
  }
}

void Endpoint::set_batch_receiver(BatchReceiver receiver) {
  batch_receiver_ = std::move(receiver);
  if (batch_receiver_ && !inbox_.empty()) {
    std::vector<util::Bytes> queued(std::make_move_iterator(inbox_.begin()),
                                    std::make_move_iterator(inbox_.end()));
    inbox_.clear();
    batch_receiver_(std::move(queued));
  }
}

void Endpoint::set_close_handler(std::function<void()> handler) {
  close_handler_ = std::move(handler);
}

void Endpoint::close() {
  if (!is_open()) return;
  state_->side_open(is_initiator_) = false;
  auto peer = is_initiator_ ? state_->side_b.lock() : state_->side_a.lock();
  // The close notification travels the same FIFO path as data — through
  // the shared link queue and the peer host's reactor — so every message
  // already in flight (including spike-delayed ones) arrives first.
  if (peer) state_->network->transmit_close(*this, peer);
}

bool Endpoint::is_open() const {
  return state_ && state_->side_open(is_initiator_);
}

void Endpoint::count_channel_event(ChannelEvent event) const {
  if (state_ && state_->network) state_->network->count_channel_event(event);
}

void Endpoint::deliver(util::Bytes&& message) {
  if (receiver_) {
    receiver_(std::move(message));
  } else {
    inbox_.push_back(std::move(message));
  }
}

void Endpoint::handle_peer_close() {
  if (state_) state_->side_open(is_initiator_) = false;
  if (close_handler_) {
    auto handler = std::move(close_handler_);
    close_handler_ = nullptr;
    handler();
  }
}

void Network::set_link(const std::string& a, const std::string& b,
                       LinkProfile profile) {
  auto key = std::minmax(a, b);
  links_[{key.first, key.second}] = profile;
}

const LinkProfile& Network::link_between(const std::string& a,
                                         const std::string& b) const {
  if (a == b) {
    // Loopback: effectively instantaneous and lossless.
    static const LinkProfile kLoopback{sim::usec(10), 1e9, 0.0};
    return kLoopback;
  }
  auto key = std::minmax(a, b);
  auto it = links_.find({key.first, key.second});
  return it == links_.end() ? default_link_ : it->second;
}

void Network::partition(const std::string& a, const std::string& b) {
  partitions_[host_pair(a, b)] = true;
}

void Network::heal(const std::string& a, const std::string& b) {
  partitions_.erase(host_pair(a, b));
}

bool Network::partitioned(const std::string& a, const std::string& b) const {
  if (partitions_.empty()) return false;
  auto it = partitions_.find(host_pair(a, b));
  return it != partitions_.end() && it->second;
}

void Network::drop_next(const std::string& from, const std::string& to,
                        int count) {
  if (count <= 0) {
    drop_schedules_.erase({from, to});
    return;
  }
  drop_schedules_[{from, to}] = count;
}

void Network::add_latency_spike(const std::string& a, const std::string& b,
                                sim::Time extra, sim::Time until) {
  spikes_[host_pair(a, b)] = LatencySpike{extra, until};
}

util::Status Network::listen(const Address& address, Acceptor acceptor) {
  // Check, then insert: the error path must not construct (and tear down)
  // a map node from the moved acceptor.
  if (listeners_.find(address) != listeners_.end())
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "address already bound: " + address.to_string());
  listeners_.emplace(address, std::move(acceptor));
  return util::Status::ok_status();
}

void Network::close_listener(const Address& address) {
  listeners_.erase(address);
}

util::Result<std::shared_ptr<Endpoint>> Network::connect(
    const std::string& from_host, const Address& to) {
  auto listener = listeners_.find(to);
  if (listener == listeners_.end())
    return util::make_error(util::ErrorCode::kUnavailable,
                            "connection refused: nothing listening at " +
                                to.to_string());
  if (partitioned(from_host, to.host))
    return util::make_error(util::ErrorCode::kUnavailable,
                            "network partitioned: " + from_host + " <-> " +
                                to.host);
  if (auto fw = firewalls_.find(to.host);
      fw != firewalls_.end() && !fw->second.permits(from_host, to.port))
    return util::make_error(util::ErrorCode::kUnavailable,
                            "firewall at " + to.host + " blocks " + from_host +
                                " -> port " + std::to_string(to.port));

  auto state = std::make_shared<Endpoint::ConnectionState>();
  state->network = this;
  state->link = link_between(from_host, to.host);

  auto client = std::make_shared<Endpoint>();
  client->state_ = state;
  client->local_host_ = from_host;
  client->remote_host_ = to.host;
  client->remote_port_ = to.port;
  client->is_initiator_ = true;

  auto server = std::make_shared<Endpoint>();
  server->state_ = state;
  server->local_host_ = to.host;
  server->remote_host_ = from_host;
  server->remote_port_ = to.port;
  server->is_initiator_ = false;

  state->side_a = client;
  state->side_b = server;
  state->to_a = {&link_queues_[{to.host, from_host}], &reactor_for(from_host)};
  state->to_b = {&link_queues_[{from_host, to.host}], &reactor_for(to.host)};

  listener->second(server);
  return client;
}

void Network::set_metrics(std::shared_ptr<obs::MetricsRegistry> registry) {
  metrics_ = std::move(registry);
  channel_counters_ = {};
  if (metrics_) {
    bytes_sent_counter_ = &metrics_->counter("unicore_net_bytes_sent_total");
    bytes_delivered_counter_ =
        &metrics_->counter("unicore_net_bytes_delivered_total");
    sent_counter_ = &metrics_->counter("unicore_net_messages_sent_total");
    delivered_counter_ =
        &metrics_->counter("unicore_net_messages_delivered_total");
    dropped_counter_ = &metrics_->counter("unicore_net_messages_dropped_total");
  } else {
    bytes_sent_counter_ = nullptr;
    bytes_delivered_counter_ = nullptr;
    sent_counter_ = nullptr;
    delivered_counter_ = nullptr;
    dropped_counter_ = nullptr;
  }
}

void Network::count_channel_event(ChannelEvent event) {
  if (!metrics_) return;
  struct Series {
    const char* name;
    const char* result;  // nullptr: no labels
  };
  static constexpr Series kSeries[kChannelEventCount] = {
      {"unicore_channel_handshakes_total", "ok"},
      {"unicore_channel_handshakes_total", "fail"},
      {"unicore_channel_handshake_timeouts_total", nullptr},
      {"unicore_channel_resumptions_total", "ok"},
      {"unicore_channel_resumptions_total", "refused"},
  };
  auto index = static_cast<std::size_t>(event);
  obs::Counter*& counter = channel_counters_[index];
  if (counter == nullptr) {
    const Series& series = kSeries[index];
    counter = &metrics_->counter(
        series.name, series.result ? obs::Labels{{"result", series.result}}
                                   : obs::Labels{});
  }
  counter->increment();
}

Reactor& Network::reactor_for(const std::string& host) {
  auto it = reactors_.find(host);
  if (it == reactors_.end())
    it = reactors_.emplace(host, std::make_unique<Reactor>(engine_, *this))
             .first;
  return *it->second;
}

sim::Time Network::spike_extra(const std::string& a, const std::string& b) {
  if (spikes_.empty()) return 0;
  auto spike = spikes_.find(host_pair(a, b));
  if (spike == spikes_.end()) return 0;
  if (engine_.now() < spike->second.until) return spike->second.extra;
  spikes_.erase(spike);
  return 0;
}

bool Network::fault_drops(const std::string& from, const std::string& to) {
  if (partitions_.empty() && drop_schedules_.empty()) return false;
  if (partitioned(from, to)) return true;
  auto sched = drop_schedules_.find({from, to});
  if (sched == drop_schedules_.end()) return false;
  if (--sched->second <= 0) drop_schedules_.erase(sched);
  return true;
}

sim::Time Network::LinkQueue::admit(sim::Time now, std::size_t bytes,
                                    const LinkProfile& link,
                                    sim::Time extra) {
  sim::Time transmission =
      link.bandwidth_bytes_per_sec > 0
          ? sim::from_seconds(static_cast<double>(bytes) /
                              link.bandwidth_bytes_per_sec)
          : 0;
  sim::Time departure = std::max(now, busy_until);
  busy_until = departure + transmission;
  sim::Time arrival = departure + transmission + link.latency + extra;
  // FIFO on the wire: even when the delay model shrinks (a latency spike
  // expires), nothing overtakes what is already in flight.
  arrival = std::max(arrival, last_arrival);
  last_arrival = arrival;
  return arrival;
}

void Network::count_drop(std::size_t n) {
  messages_dropped_ += n;
  if (dropped_counter_)
    dropped_counter_->add(static_cast<double>(n));
}

void Network::transmit(Endpoint& from, util::Bytes message) {
  Endpoint::ConnectionState& state = *from.state_;
  ++messages_sent_;
  if (sent_counter_) sent_counter_->increment();
  if (bytes_sent_counter_)
    bytes_sent_counter_->add(static_cast<double>(message.size()));
  auto target =
      from.is_initiator_ ? state.side_b.lock() : state.side_a.lock();
  if (!target) {
    // Peer endpoint already destroyed: the message is gone, and the books
    // must say so (sent = delivered + dropped).
    count_drop();
    return;
  }

  // Injected faults take precedence over probabilistic link loss: a
  // partitioned pair drops everything, a drop schedule eats the next N
  // messages in one direction.
  if (fault_drops(from.local_host_, target->local_host_)) {
    count_drop();
    ++messages_dropped_by_faults_;
    return;
  }

  if (rng_.chance(state.link.loss_probability)) {
    count_drop();
    return;
  }

  const auto& route = state.route_from(from.is_initiator_);
  sim::Time arrival =
      route.queue->admit(engine_.now(), message.size(), state.link,
                         spike_extra(from.local_host_, target->local_host_));
  route.reactor->enqueue_message(arrival, target, from.weak_from_this(),
                                 std::move(message));
}

void Network::transmit_close(Endpoint& from,
                             const std::shared_ptr<Endpoint>& peer) {
  // A close notice carries no payload but flows through the same link
  // queue and reactor as data, so it cannot overtake in-flight messages.
  // It deliberately skips the fault knobs: teardown is observed even
  // across partitions (the local side is gone either way).
  const Endpoint::ConnectionState& state = *from.state_;
  const auto& route = state.route_from(from.is_initiator_);
  sim::Time arrival =
      route.queue->admit(engine_.now(), 0, state.link,
                         spike_extra(from.local_host_, peer->local_host_));
  route.reactor->enqueue_close(arrival, peer);
}

void Network::dispatch_batch(const std::shared_ptr<Endpoint>& target,
                             std::span<Reactor::Item> batch) {
  if (!target) {
    // Every weak reference expired while the batch was in flight.
    count_drop(batch.size());
    return;
  }
  if (target->batch_receiver_) {
    if (!target->is_open()) {
      count_drop(batch.size());
      return;
    }
    std::vector<util::Bytes> payloads;
    payloads.reserve(batch.size());
    for (Reactor::Item& item : batch) {
      ++messages_delivered_;
      if (delivered_counter_) delivered_counter_->increment();
      if (bytes_delivered_counter_)
        bytes_delivered_counter_->add(static_cast<double>(item.payload.size()));
      if (auto sender = item.sender.lock())
        sender->bytes_delivered_ += item.payload.size();
      payloads.push_back(std::move(item.payload));
    }
    target->batch_receiver_(std::move(payloads));
    return;
  }
  for (Reactor::Item& item : batch) {
    // Only the *receiving* side's open flag gates delivery: a sender
    // that closed after the send has already paid for the bytes. A
    // receiver that closes mid-batch drops the tail — counted.
    if (!target->is_open()) {
      count_drop();
      continue;
    }
    ++messages_delivered_;
    if (delivered_counter_) delivered_counter_->increment();
    if (bytes_delivered_counter_)
      bytes_delivered_counter_->add(static_cast<double>(item.payload.size()));
    if (auto sender = item.sender.lock())
      sender->bytes_delivered_ += item.payload.size();
    target->deliver(std::move(item.payload));
  }
}

void Network::dispatch_close(const std::shared_ptr<Endpoint>& target) {
  target->handle_peer_close();
}

}  // namespace unicore::net
