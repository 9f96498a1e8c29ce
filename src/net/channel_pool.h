// ChannelPool — N warm, resumption-capable secure channels to one
// remote address, shared by whatever traffic a component aims at that
// peer (NJS–NJS requests, transfer rails).
//
// Slots connect lazily on first use and reconnect after failure;
// messages sent during a handshake are queued per slot. Every slot
// shares the pool's SecureChannel template — in particular its
// SessionCache — so the first full handshake to a peer warms a ticket
// and every later (re)connect resumes in one round trip with zero
// public-key operations.
//
// Failure is isolated per slot: the owner's slot-failure handler fires
// for exactly the slot that died, and only that slot's in-flight work
// needs to be failed. All channel callbacks hold the pool weakly;
// dropping the last owning reference tears every slot down.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/secure_channel.h"
#include "util/result.h"

namespace unicore::net {

class ChannelPool : public std::enable_shared_from_this<ChannelPool> {
 public:
  struct Config {
    std::string local_host;  // host the pool connects from
    Address remote;
    std::size_t size = 1;
    /// Template applied to every slot's channel. When session_key is
    /// empty it defaults to SessionCache::key_for(remote) so all slots
    /// share one ticket lineage.
    SecureChannel::Config channel;
  };

  /// (slot, decrypted message) for every application message.
  using Receiver = std::function<void(std::size_t, util::Bytes&&)>;
  /// Fired once per slot failure, before the slot becomes reconnectable.
  using SlotFailureHandler =
      std::function<void(std::size_t, const util::Error&)>;

  static std::shared_ptr<ChannelPool> create(sim::Engine& engine,
                                             Network& network, util::Rng& rng,
                                             Config config);
  ~ChannelPool();

  std::size_t size() const { return slots_.size(); }

  /// Round-robin slot pick for traffic with no slot affinity.
  std::size_t next_slot() {
    std::size_t slot = round_robin_;
    round_robin_ = (round_robin_ + 1) % slots_.size();
    return slot;
  }

  /// Sends on `slot`, connecting it first if needed (messages queue
  /// during the handshake). On a synchronous connect failure the slot
  /// failure handler has already fired when this returns.
  void send_on(std::size_t slot, util::Bytes wire);

  void set_receiver(Receiver receiver) { on_message_ = std::move(receiver); }
  void set_slot_failure(SlotFailureHandler handler) {
    on_slot_failure_ = std::move(handler);
  }

  bool slot_established(std::size_t slot) const {
    return slots_[slot].established;
  }
  /// The slot's channel (nullptr when disconnected) — for diagnostics
  /// such as resumed().
  std::shared_ptr<SecureChannel> slot_channel(std::size_t slot) const {
    return slots_[slot].channel;
  }

  /// Closes every slot. Does not fire slot-failure handlers — owners
  /// shutting down fail their own in-flight work.
  void shutdown();

  /// Handshakes started (full or resumed) over the pool's lifetime.
  std::uint64_t connects() const { return connects_; }
  /// How many of the settled handshakes were ticket resumptions.
  std::uint64_t resumptions() const { return resumptions_; }

 private:
  struct Slot {
    std::shared_ptr<SecureChannel> channel;
    bool established = false;
    std::deque<util::Bytes> backlog;
  };

  ChannelPool(sim::Engine& engine, Network& network, util::Rng& rng,
              Config config);

  void ensure_slot(std::size_t index);
  void fail_slot(std::size_t index, util::Error error);

  sim::Engine& engine_;
  Network& network_;
  util::Rng rng_;
  Config config_;
  std::vector<Slot> slots_;
  std::size_t round_robin_ = 0;
  Receiver on_message_;
  SlotFailureHandler on_slot_failure_;
  std::uint64_t connects_ = 0;
  std::uint64_t resumptions_ = 0;
};

}  // namespace unicore::net
