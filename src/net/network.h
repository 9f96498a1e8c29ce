// Simulated network substrate.
//
// Hosts are named ("gateway.fz-juelich.de"); connections are reliable,
// ordered, message-oriented pipes except for configurable per-message
// loss — exactly the "unreliability of the underlying communication
// mechanism" the paper's asynchronous protocol is designed to tolerate
// (§5.3). Links have latency and bandwidth so benches can measure
// transfer-rate effects (§5.6). Firewalls model the split-server
// deployment of §4.2/§5.2.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/reactor.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"

namespace unicore::net {

/// Seconds since the Unix epoch at simulation time 0 — 1999-08-25, the
/// date of the paper's final revision. Certificate validity is expressed
/// in epoch seconds, simulation time in microseconds since this instant.
constexpr std::int64_t kSimulationEpoch = 935'536'000;

/// Converts simulation time to certificate-validity epoch seconds.
constexpr std::int64_t epoch_seconds(sim::Time t) {
  return kSimulationEpoch + t / 1'000'000;
}

struct Address {
  std::string host;
  std::uint16_t port = 0;

  bool operator==(const Address&) const = default;
  auto operator<=>(const Address&) const = default;
  std::string to_string() const {
    return host + ":" + std::to_string(port);
  }
};

/// Quality of the path between two hosts.
struct LinkProfile {
  sim::Time latency = sim::msec(5);
  double bandwidth_bytes_per_sec = 10e6;
  double loss_probability = 0.0;
};

/// Per-host inbound packet filter. Default-allow until a rule or
/// deny_all() flips the host to default-deny; rules then whitelist
/// (source-host, port) pairs, with "*" matching any source.
class Firewall {
 public:
  void deny_all() { default_allow_ = false; }
  void allow(std::string source_host, std::uint16_t port) {
    default_allow_ = false;
    rules_.push_back({std::move(source_host), port});
  }
  void allow_from_any(std::uint16_t port) { allow("*", port); }

  bool permits(const std::string& source_host, std::uint16_t port) const {
    if (default_allow_) return true;
    for (const auto& rule : rules_)
      if (rule.port == port && (rule.source == "*" || rule.source == source_host))
        return true;
    return false;
  }

 private:
  struct Rule {
    std::string source;
    std::uint16_t port;
  };
  bool default_allow_ = true;
  std::vector<Rule> rules_;
};

class Network;

/// Handshake outcomes of the secure channels riding the fabric, counted
/// into its registry as unicore_channel_* (net/secure_channel.h).
enum class ChannelEvent : std::uint8_t {
  kHandshakeOk,
  kHandshakeFail,
  kHandshakeTimeout,
  kResumed,
  kResumeRefused,
};
inline constexpr std::size_t kChannelEventCount = 5;

/// One side of an established connection. Message-oriented: each send()
/// arrives as one receive callback (or is dropped by link loss).
class Endpoint : public std::enable_shared_from_this<Endpoint> {
 public:
  using Receiver = std::function<void(util::Bytes&&)>;
  using BatchReceiver = std::function<void(std::vector<util::Bytes>&&)>;

  /// Queues a message toward the peer. Silently drops on closed
  /// connections (like writing to a dead TCP socket whose RST has not
  /// arrived yet).
  void send(util::Bytes message);

  /// Installs the receive callback; any messages that arrived before the
  /// receiver was set are delivered immediately (same event).
  void set_receiver(Receiver receiver);

  /// Installs a batch receive callback. When set, it takes precedence
  /// over the per-message receiver: the reactor hands over every message
  /// that became ready in the same tick as one vector, preserving arrival
  /// order. Messages queued in the inbox are flushed to it immediately.
  void set_batch_receiver(BatchReceiver receiver);

  /// Installs a callback fired once when the connection closes.
  void set_close_handler(std::function<void()> handler);

  /// Closes this side immediately; the peer observes the close only
  /// after every message already in flight toward it has arrived (FIFO:
  /// a close may not overtake data).
  void close();
  bool is_open() const;

  const std::string& local_host() const { return local_host_; }
  const std::string& remote_host() const { return remote_host_; }
  std::uint16_t remote_port() const { return remote_port_; }

  /// Total payload bytes *attempted* by send() on this side (counted
  /// before link loss, like interface TX counters).
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  /// Payload bytes actually handed to the peer's receiver/inbox.
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }

  /// Counts `event` into the owning network's registry, if any.
  void count_channel_event(ChannelEvent event) const;

 private:
  friend class Network;
  struct ConnectionState;

  std::shared_ptr<ConnectionState> state_;
  std::string local_host_;
  std::string remote_host_;
  std::uint16_t remote_port_ = 0;
  bool is_initiator_ = false;
  Receiver receiver_;
  BatchReceiver batch_receiver_;
  std::function<void()> close_handler_;
  std::deque<util::Bytes> inbox_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_delivered_ = 0;

  void deliver(util::Bytes&& message);
  void handle_peer_close();
};

/// The network fabric: host link profiles, firewalls, listeners.
class Network {
 public:
  Network(sim::Engine& engine, util::Rng rng)
      : engine_(engine), rng_(std::move(rng)) {}

  sim::Engine& engine() { return engine_; }

  void set_default_link(LinkProfile profile) { default_link_ = profile; }

  /// Sets the (symmetric) profile between two hosts.
  void set_link(const std::string& a, const std::string& b,
                LinkProfile profile);

  const LinkProfile& link_between(const std::string& a,
                                  const std::string& b) const;

  Firewall& firewall(const std::string& host) { return firewalls_[host]; }

  using Acceptor = std::function<void(std::shared_ptr<Endpoint>)>;

  /// Binds an acceptor to `address`. Fails if already bound.
  util::Status listen(const Address& address, Acceptor acceptor);
  void close_listener(const Address& address);

  /// Opens a connection from `from_host` to `to`. Fails when nothing
  /// listens there or the destination firewall rejects the source.
  /// Connection setup itself is instantaneous (the cost is modelled in
  /// the handshake round trips that follow).
  util::Result<std::shared_ptr<Endpoint>> connect(const std::string& from_host,
                                                  const Address& to);

  /// Messages handed to transmit (counted whether or not they survive the
  /// trip); the fabric maintains sent = delivered + dropped.
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_delivered() const { return messages_delivered_; }
  std::uint64_t messages_dropped() const { return messages_dropped_; }

  /// The delivery reactor for `host` (created on first use). Exposed for
  /// tests and benches that assert on batching behaviour.
  Reactor& reactor_for(const std::string& host);

  // --- fault injection ---------------------------------------------------
  // Knobs consulted per message in transmit() while any is installed; see
  // net/faults.h for the scheduling harness that drives them from tests.

  /// Severs the path between two hosts (both directions): messages are
  /// dropped and new connects fail with kUnavailable.
  void partition(const std::string& a, const std::string& b);
  void heal(const std::string& a, const std::string& b);
  bool partitioned(const std::string& a, const std::string& b) const;

  /// Drops the next `count` messages sent from `from` to `to` (one
  /// direction only); models a burst of loss on an otherwise good link.
  void drop_next(const std::string& from, const std::string& to, int count);

  /// Adds `extra` latency to every message between two hosts until
  /// simulation time `until` (a latency spike).
  void add_latency_spike(const std::string& a, const std::string& b,
                         sim::Time extra, sim::Time until);

  /// Messages dropped by partitions or drop schedules (a subset of
  /// messages_dropped()).
  std::uint64_t messages_dropped_by_faults() const {
    return messages_dropped_by_faults_;
  }

  /// Routes fabric-level byte/message/drop counters through `registry`
  /// (shared with the Usites so one snapshot covers the whole grid).
  void set_metrics(std::shared_ptr<obs::MetricsRegistry> registry);
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }
  void count_channel_event(ChannelEvent event);

 private:
  friend class Endpoint;
  friend class Reactor;

  void transmit(Endpoint& from, util::Bytes message);
  void transmit_close(Endpoint& from, const std::shared_ptr<Endpoint>& peer);

  /// Reactor callbacks: a batch of ready messages for one endpoint
  /// (`target` may be null when every weak reference expired), whose
  /// payloads it moves out, and a close notice reaching the peer.
  void dispatch_batch(const std::shared_ptr<Endpoint>& target,
                      std::span<Reactor::Item> batch);
  void dispatch_close(const std::shared_ptr<Endpoint>& target);

  struct LatencySpike {
    sim::Time extra = 0;
    sim::Time until = 0;
  };
  /// Shared capacity of one direction of the pipe between a host pair:
  /// every connection a->b serializes through the same link, and arrival
  /// times are clamped monotonic so nothing — data or close — overtakes
  /// on the wire (e.g. when a latency spike expires mid-stream).
  struct LinkQueue {
    sim::Time busy_until = 0;
    sim::Time last_arrival = 0;

    /// The arrival time of `bytes` payload bytes sent at `now` over
    /// `link`, delayed `extra` more by a latency spike; advances the
    /// queue. Data and close notices alike pass here, so FIFO holds
    /// across both.
    sim::Time admit(sim::Time now, std::size_t bytes, const LinkProfile& link,
                    sim::Time extra);
  };
  static std::pair<std::string, std::string> host_pair(const std::string& a,
                                                       const std::string& b) {
    return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  /// Extra delay from an active latency spike between two hosts; expired
  /// spikes are garbage-collected here.
  sim::Time spike_extra(const std::string& a, const std::string& b);

  /// Whether an injected fault eats a message from `from` to `to` (a
  /// partition, or the next entry of a drop schedule, which it consumes).
  /// Consults each fault map only when it holds something.
  bool fault_drops(const std::string& from, const std::string& to);

  void count_drop(std::size_t n = 1);

  sim::Engine& engine_;
  util::Rng rng_;
  LinkProfile default_link_;
  std::map<std::pair<std::string, std::string>, LinkProfile> links_;
  std::map<std::string, Firewall> firewalls_;
  std::map<Address, Acceptor> listeners_;
  std::map<std::pair<std::string, std::string>, bool> partitions_;
  std::map<std::pair<std::string, std::string>, int> drop_schedules_;
  std::map<std::pair<std::string, std::string>, LatencySpike> spikes_;
  // Connections hold pointers into these two (map nodes do not move, and
  // neither map ever erases).
  std::map<std::pair<std::string, std::string>, LinkQueue> link_queues_;
  std::map<std::string, std::unique_ptr<Reactor>> reactors_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t messages_dropped_by_faults_ = 0;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* bytes_sent_counter_ = nullptr;
  obs::Counter* bytes_delivered_counter_ = nullptr;
  obs::Counter* sent_counter_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  /// One per ChannelEvent, resolved on first use and dropped by
  /// set_metrics.
  std::array<obs::Counter*, kChannelEventCount> channel_counters_{};
};

}  // namespace unicore::net
