#include "net/channel_pool.h"

#include <utility>

namespace unicore::net {

using util::Bytes;
using util::ErrorCode;

std::shared_ptr<ChannelPool> ChannelPool::create(sim::Engine& engine,
                                                 Network& network,
                                                 util::Rng& rng,
                                                 Config config) {
  return std::shared_ptr<ChannelPool>(
      new ChannelPool(engine, network, rng, std::move(config)));
}

ChannelPool::ChannelPool(sim::Engine& engine, Network& network, util::Rng& rng,
                         Config config)
    : engine_(engine),
      network_(network),
      rng_(rng.fork()),
      config_(std::move(config)) {
  if (config_.size == 0) config_.size = 1;
  if (config_.channel.session_key.empty())
    config_.channel.session_key = SessionCache::key_for(
        config_.remote.host, config_.remote.port);
  slots_.resize(config_.size);
}

ChannelPool::~ChannelPool() {
  for (auto& slot : slots_) {
    if (slot.channel) slot.channel->close();
  }
}

void ChannelPool::shutdown() {
  for (auto& slot : slots_) {
    if (slot.channel) slot.channel->close();
    slot.channel = nullptr;
    slot.established = false;
    slot.backlog.clear();
  }
}

void ChannelPool::send_on(std::size_t slot_index, Bytes wire) {
  if (slot_index >= slots_.size()) slot_index %= slots_.size();
  ensure_slot(slot_index);
  Slot& slot = slots_[slot_index];
  if (!slot.channel) return;  // connect failed; failure handler already ran
  if (slot.established)
    slot.channel->send(std::move(wire));
  else
    slot.backlog.push_back(std::move(wire));
}

void ChannelPool::ensure_slot(std::size_t index) {
  Slot& slot = slots_[index];
  if (slot.channel && !slot.channel->failed()) return;
  if (slot.channel) {
    slot.channel = nullptr;
    slot.established = false;
  }

  auto endpoint = network_.connect(config_.local_host, config_.remote);
  if (!endpoint) {
    fail_slot(index, endpoint.error());
    return;
  }

  std::weak_ptr<ChannelPool> weak = weak_from_this();
  slot.established = false;
  ++connects_;
  slot.channel = SecureChannel::as_client(
      engine_, rng_, endpoint.value(), config_.channel,
      [weak, index](util::Status status) {
        auto self = weak.lock();
        if (!self) return;
        if (!status.ok()) {
          self->fail_slot(index, status.error());
          return;
        }
        Slot& slot = self->slots_[index];
        if (!slot.channel) return;
        if (slot.channel->resumed()) ++self->resumptions_;
        slot.established = true;
        while (!slot.backlog.empty()) {
          slot.channel->send(std::move(slot.backlog.front()));
          slot.backlog.pop_front();
        }
      });
  slot.channel->set_receiver([weak, index](Bytes&& wire) {
    auto self = weak.lock();
    if (!self) return;
    if (self->on_message_) self->on_message_(index, std::move(wire));
  });
  slot.channel->set_close_handler([weak, index] {
    if (auto self = weak.lock())
      self->fail_slot(index, util::make_error(ErrorCode::kUnavailable,
                                              "pooled channel closed"));
  });
}

void ChannelPool::fail_slot(std::size_t index, util::Error error) {
  Slot& slot = slots_[index];
  auto channel = std::move(slot.channel);
  slot.channel = nullptr;
  slot.established = false;
  slot.backlog.clear();
  if (channel) channel->close();
  if (on_slot_failure_) on_slot_failure_(index, error);
}

}  // namespace unicore::net
