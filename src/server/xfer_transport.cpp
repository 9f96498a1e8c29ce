#include "server/xfer_transport.h"

#include <stdexcept>
#include <utility>

namespace unicore::server {

using util::ByteReader;
using util::Bytes;
using util::Error;
using util::ErrorCode;
using util::Result;

RequestKind xfer_request_kind(xfer::Op op) {
  switch (op) {
    case xfer::Op::kOpen: return RequestKind::kXferBundleOpen;
    case xfer::Op::kChunk: return RequestKind::kXferChunk;
    case xfer::Op::kClose: return RequestKind::kXferBundleClose;
  }
  return RequestKind::kXferChunk;
}

std::shared_ptr<XferRails> XferRails::create(sim::Engine& engine,
                                             net::Network& network,
                                             util::Rng& rng, Config config) {
  auto rails = std::shared_ptr<XferRails>(
      new XferRails(engine, network, rng, std::move(config)));
  std::weak_ptr<XferRails> weak = rails;
  rails->pool_->set_receiver([weak](std::size_t index, Bytes&& wire) {
    if (auto self = weak.lock())
      self->handle_rail_message(index, std::move(wire));
  });
  rails->pool_->set_slot_failure([weak](std::size_t index,
                                        const Error& error) {
    if (auto self = weak.lock()) self->fail_rail(index, error);
  });
  return rails;
}

XferRails::XferRails(sim::Engine& engine, net::Network& network,
                     util::Rng& rng, Config config)
    : engine_(engine), config_(std::move(config)) {
  if (config_.streams == 0) config_.streams = 1;
  rails_.resize(config_.streams);

  net::ChannelPool::Config pool_config;
  pool_config.local_host = config_.local_host;
  pool_config.remote = config_.remote;
  pool_config.size = config_.streams;
  pool_config.channel.credential = config_.credential;
  pool_config.channel.trust = config_.trust;
  pool_config.channel.required_peer_usage = config_.required_peer_usage;
  pool_config.channel.session_cache = config_.session_cache;
  pool_ = net::ChannelPool::create(engine, network, rng,
                                   std::move(pool_config));
}

XferRails::~XferRails() = default;

void XferRails::shutdown() {
  pool_->shutdown();  // fires no failure callbacks; fail pendings below
  for (std::size_t i = 0; i < rails_.size(); ++i)
    fail_rail(i, util::make_error(ErrorCode::kUnavailable,
                                  "transfer rails shut down"));
}

void XferRails::call(std::size_t stream, xfer::Op op, Bytes body,
                     std::function<void(Result<Bytes>)> done) {
  if (stream >= rails_.size()) stream = stream % rails_.size();

  std::uint64_t request_id = next_request_id_++;
  Bytes wire = make_request(xfer_request_kind(op), request_id, body);

  Pending pending;
  pending.handler = std::move(done);
  std::weak_ptr<XferRails> weak = weak_from_this();
  pending.timeout =
      engine_.after(config_.request_timeout, [weak, stream, request_id] {
        auto self = weak.lock();
        if (!self) return;
        Rail& rail = self->rails_[stream];
        auto it = rail.pending.find(request_id);
        if (it == rail.pending.end()) return;
        auto handler = std::move(it->second.handler);
        rail.pending.erase(it);
        handler(util::make_error(ErrorCode::kTimeout,
                                 "transfer request timed out"));
      });
  rails_[stream].pending.emplace(request_id, std::move(pending));
  // Connect failure is synchronous: the pool's slot-failure callback
  // (fail_rail) has already failed the pending entry in that case.
  pool_->send_on(stream, std::move(wire));
}

void XferRails::fail_rail(std::size_t index, const Error& error) {
  Rail& rail = rails_[index];
  auto pending = std::move(rail.pending);
  rail.pending.clear();
  for (auto& [id, entry] : pending) {
    if (entry.timeout) engine_.cancel(*entry.timeout);
    entry.handler(error);
  }
}

void XferRails::handle_rail_message(std::size_t index, Bytes&& wire) {
  ByteReader r(wire);
  Result<Bytes> outcome =
      util::make_error(ErrorCode::kInternal, "malformed transfer reply");
  std::uint64_t request_id = 0;
  try {
    auto type = static_cast<MessageType>(r.u8());
    if (type != MessageType::kReply) return;  // rails only carry replies
    request_id = r.u64();
    bool ok = r.u8() != 0;
    if (ok) {
      outcome = r.raw(r.remaining());
    } else {
      outcome = decode_error(r);
    }
  } catch (const std::out_of_range&) {
    return;
  }
  Rail& rail = rails_[index];
  auto it = rail.pending.find(request_id);
  if (it == rail.pending.end()) return;  // already timed out
  if (it->second.timeout) engine_.cancel(*it->second.timeout);
  auto handler = std::move(it->second.handler);
  rail.pending.erase(it);
  handler(std::move(outcome));
}

}  // namespace unicore::server
